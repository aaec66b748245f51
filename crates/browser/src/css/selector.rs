//! Selector matching against the DOM.

use super::parser::{Selector, SimpleSelector};
use crate::dom::{Document, NodeId, NodeKind};

/// Whether `selector` matches the element `id` in `doc` (the last simple
/// selector must match the element, earlier ones must match ancestors in
/// order — descendant combinator semantics).
///
/// Non-element nodes never match.
pub fn matches(doc: &Document, id: NodeId, selector: &Selector) -> bool {
    let Some((subject, mut remaining)) = selector.parts.split_last() else {
        return false;
    };
    if !matches_simple(doc, id, subject) {
        return false;
    }
    // Walk ancestors matching the remaining chain right-to-left.
    let mut current = doc.node(id).parent;
    while let Some((part, outer)) = remaining.split_last() {
        let Some(anc) = current else {
            return false; // ran out of ancestors with parts unmatched
        };
        if matches_simple(doc, anc, part) {
            remaining = outer;
        }
        current = doc.node(anc).parent;
    }
    true
}

fn matches_simple(doc: &Document, id: NodeId, simple: &SimpleSelector) -> bool {
    let NodeKind::Element { tag, attrs } = &doc.node(id).kind else {
        return false;
    };
    if let Some(want) = &simple.tag {
        if tag != want {
            return false;
        }
    }
    if let Some(want_id) = &simple.id {
        let has = attrs.iter().any(|(k, v)| k == "id" && v == want_id);
        if !has {
            return false;
        }
    }
    if !simple.classes.is_empty() {
        let class_attr = attrs
            .iter()
            .find(|(k, _)| k == "class")
            .map(|(_, v)| v.as_str())
            .unwrap_or("");
        return simple
            .classes
            .iter()
            .all(|want| class_attr.split_whitespace().any(|c| c == want));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::css::parse;

    /// Builds `<div id="top" class="wrap"><p class="c1 big">..<a>..</a></p></div>`.
    fn doc() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let div = d.append_element(
            d.root(),
            "div",
            vec![("id".into(), "top".into()), ("class".into(), "wrap".into())],
        );
        let p = d.append_element(div, "p", vec![("class".into(), "c1 big".into())]);
        let a = d.append_element(p, "a", vec![("href".into(), "#".into())]);
        (d, div, p, a)
    }

    fn sel(text: &str) -> Selector {
        parse(&format!("{text} {{ color: red; }}")).sheet.rules[0].selectors[0].clone()
    }

    #[test]
    fn tag_class_id_matching() {
        let (d, div, p, _) = doc();
        assert!(matches(&d, p, &sel("p")));
        assert!(matches(&d, p, &sel(".c1")));
        assert!(matches(&d, p, &sel("p.big")));
        assert!(!matches(&d, p, &sel("p.missing")));
        assert!(matches(&d, div, &sel("#top")));
        assert!(matches(&d, div, &sel("div#top.wrap")));
        assert!(!matches(&d, p, &sel("#top")));
    }

    #[test]
    fn descendant_combinator() {
        let (d, _, p, a) = doc();
        assert!(matches(&d, p, &sel(".wrap p")));
        assert!(matches(&d, a, &sel("#top a")));
        assert!(matches(&d, a, &sel("div p a")));
        assert!(!matches(&d, a, &sel("span a")));
        assert!(
            !matches(&d, p, &sel("p a")),
            "subject must be the element itself"
        );
    }

    #[test]
    fn universal_matches_all_elements() {
        let (d, div, p, a) = doc();
        for id in [div, p, a] {
            assert!(matches(&d, id, &sel("*")));
        }
        assert!(!matches(&d, d.root(), &sel("*")), "root is not an element");
    }

    #[test]
    fn multi_class_requirement() {
        let (d, _, p, _) = doc();
        assert!(matches(&d, p, &sel(".c1.big")));
        assert!(!matches(&d, p, &sel(".c1.small")));
    }
}
