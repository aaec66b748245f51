//! The tree-walking interpreter with host effects and an operation budget.

use super::ast::{parse_program, BinOp, Callee, Expr, Function, Name, Stmt, UnaryOp};
use std::fmt::{self, Write};

/// A side effect a script asked the browser for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsEffect {
    /// `loadImage(url)` — fetch an image.
    LoadImage(String),
    /// `loadScript(url)` — fetch and execute another script.
    LoadScript(String),
    /// `document.write(html)` — inject markup (which may reference more
    /// resources).
    DocumentWrite(String),
}

/// The result of executing a script.
#[derive(Debug, Clone, PartialEq)]
pub struct JsOutcome {
    /// Host effects, in execution order.
    pub effects: Vec<JsEffect>,
    /// Interpreter operations executed (work accounting).
    pub ops: u64,
    /// Tokens lexed (work accounting).
    pub tokens: usize,
    /// Source bytes (work accounting).
    pub bytes: usize,
    /// Whether the source parsed; a `false` outcome has no effects.
    pub parse_ok: bool,
    /// Whether the operation budget was exhausted (runaway script).
    pub hit_gas_limit: bool,
}

/// Default operation budget per script.
pub const DEFAULT_GAS: u64 = 2_000_000;

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
    Undefined,
}

impl Value {
    fn truthy(&self) -> bool {
        match self {
            // lint:allow(api/float-eq) ECMA ToBoolean: only exact +/-0 and NaN are falsy
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bool(b) => *b,
            Value::Undefined => false,
        }
    }

    fn to_num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            Value::Str(s) => s.parse().unwrap_or(f64::NAN),
            Value::Bool(true) => 1.0,
            Value::Bool(false) => 0.0,
            Value::Undefined => f64::NAN,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JS-style number printing: integers without a decimal point,
            // which is what makes `base + i + ".jpg"` produce "dyn0.jpg".
            Value::Num(n) => {
                // lint:allow(api/float-eq) fract() of a mathematical integer is exactly 0.0
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Undefined => f.write_str("undefined"),
        }
    }
}

enum Flow {
    Normal,
    Return(Value),
    OutOfGas,
}

/// Variables are resolved at parse time to a frame slot and a global
/// [`Name`], so a frame is a run of `Option<Value>` slots where `Some`
/// means "bound in this frame". A read tries the running frame, then the
/// globals; an assignment updates the frame's binding if it has one and
/// otherwise creates or updates a global.
struct Interp<'p> {
    globals: Vec<Option<Value>>,
    /// Registered functions, borrowed from the parsed program: registering
    /// or calling a function never copies its AST.
    functions: Vec<Option<&'p Function>>,
    /// All live frames, innermost last; the running frame starts at
    /// `base`. Slots are reused across calls.
    stack: Vec<Option<Value>>,
    /// Argument values of the calls being set up, innermost last.
    args: Vec<Value>,
    effects: Vec<JsEffect>,
    gas: u64,
    ops: u64,
    call_depth: usize,
}

const MAX_CALL_DEPTH: usize = 64;

/// Parses and executes `source` with the given operation budget
/// (`None` = [`DEFAULT_GAS`]).
pub fn execute(source: &str, gas: Option<u64>) -> JsOutcome {
    let bytes = source.len();
    let program = match parse_program(source) {
        Ok(p) => p,
        Err(_) => {
            return JsOutcome {
                effects: Vec::new(),
                ops: 0,
                tokens: 0,
                bytes,
                parse_ok: false,
                hit_gas_limit: false,
            }
        }
    };
    let names = program.names.len();
    let mut interp = Interp {
        globals: vec![None; names],
        functions: vec![None; names],
        // The top-level frame sits at base 0.
        stack: vec![None; program.frame],
        args: Vec::new(),
        effects: Vec::new(),
        gas: gas.unwrap_or(DEFAULT_GAS),
        ops: 0,
        call_depth: 0,
    };
    let mut hit_gas_limit = false;
    // Hoist function declarations (simplified hoisting).
    for stmt in &program.statements {
        if let Stmt::FunctionDecl(f) = stmt {
            interp.functions[f.name.0] = Some(f);
        }
    }
    for stmt in &program.statements {
        match interp.exec(stmt, 0) {
            Flow::Normal => {}
            Flow::Return(_) => break,
            Flow::OutOfGas => {
                hit_gas_limit = true;
                break;
            }
        }
    }
    JsOutcome {
        effects: interp.effects,
        ops: interp.ops,
        tokens: program.tokens,
        bytes,
        parse_ok: true,
        hit_gas_limit,
    }
}

impl<'p> Interp<'p> {
    fn charge(&mut self) -> bool {
        self.ops += 1;
        if self.gas == 0 {
            return false;
        }
        self.gas -= 1;
        true
    }

    /// Runs `stmts` in the frame at `base`, stopping at the first
    /// non-normal flow.
    fn exec_block(&mut self, stmts: &'p [Stmt], base: usize) -> Flow {
        for s in stmts {
            match self.exec(s, base) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec(&mut self, stmt: &'p Stmt, base: usize) -> Flow {
        if !self.charge() {
            return Flow::OutOfGas;
        }
        match stmt {
            Stmt::VarDecl { var, init } => {
                let value = match init {
                    Some(e) => match self.eval(e, base) {
                        Some(v) => v,
                        None => return Flow::OutOfGas,
                    },
                    None => Value::Undefined,
                };
                self.stack[base + var.slot] = Some(value);
                Flow::Normal
            }
            Stmt::Expr(e) => match self.eval(e, base) {
                Some(_) => Flow::Normal,
                None => Flow::OutOfGas,
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let Some(c) = self.eval(cond, base) else {
                    return Flow::OutOfGas;
                };
                let branch = if c.truthy() { then_branch } else { else_branch };
                self.exec_block(branch, base)
            }
            Stmt::While { cond, body } => loop {
                let Some(c) = self.eval(cond, base) else {
                    return Flow::OutOfGas;
                };
                if !c.truthy() {
                    return Flow::Normal;
                }
                match self.exec_block(body, base) {
                    Flow::Normal => {}
                    other => return other,
                }
            },
            Stmt::FunctionDecl(f) => {
                // Re-registration at execution time is a no-op thanks to
                // hoisting, but nested declarations register here.
                self.functions[f.name.0] = Some(f);
                Flow::Normal
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => match self.eval(e, base) {
                        Some(v) => v,
                        None => return Flow::OutOfGas,
                    },
                    None => Value::Undefined,
                };
                Flow::Return(v)
            }
        }
    }

    /// Evaluates `expr` in the frame at `base`; `None` when the budget
    /// (or the call depth) ran out.
    fn eval(&mut self, expr: &'p Expr, base: usize) -> Option<Value> {
        if !self.charge() {
            return None;
        }
        match expr {
            Expr::Num(v) => Some(Value::Num(*v)),
            Expr::Str(s) => Some(Value::Str(s.clone())),
            Expr::Bool(b) => Some(Value::Bool(*b)),
            Expr::Var(var) => Some(
                self.stack[base + var.slot]
                    .as_ref()
                    .or(self.globals[var.name.0].as_ref())
                    .cloned()
                    .unwrap_or(Value::Undefined),
            ),
            Expr::Assign { var, value } => {
                let v = self.eval(value, base)?;
                // Assignment updates the innermost binding that exists;
                // otherwise creates a global (JS semantics, simplified).
                let local = &mut self.stack[base + var.slot];
                if local.is_some() {
                    *local = Some(v.clone());
                } else {
                    self.globals[var.name.0] = Some(v.clone());
                }
                Some(v)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, base)?;
                Some(match op {
                    UnaryOp::Neg => Value::Num(-v.to_num()),
                    UnaryOp::Not => Value::Bool(!v.truthy()),
                })
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval(left, base)?;
                let r = self.eval(right, base)?;
                Some(binary(*op, l, r))
            }
            Expr::Call { target, args } => {
                let mark = self.args.len();
                for a in args {
                    let v = self.eval(a, base)?;
                    self.args.push(v);
                }
                let result = self.call(*target, mark);
                self.args.truncate(mark);
                result
            }
        }
    }

    /// Calls `target` with the argument values `self.args[mark..]`.
    fn call(&mut self, target: Callee, mark: usize) -> Option<Value> {
        let effect = match target {
            Callee::LoadImage => JsEffect::LoadImage,
            Callee::LoadScript => JsEffect::LoadScript,
            Callee::DocumentWrite => JsEffect::DocumentWrite,
            Callee::Function(name) => return self.call_function(name, mark),
        };
        if let Some(v) = self.args.get(mark) {
            self.effects.push(effect(v.to_string()));
        }
        Some(Value::Undefined)
    }

    fn call_function(&mut self, name: Name, mark: usize) -> Option<Value> {
        let Some(f) = self.functions[name.0] else {
            // Unknown function: evaluate to undefined, as a lenient
            // engine does for missing host APIs.
            return Some(Value::Undefined);
        };
        if self.call_depth >= MAX_CALL_DEPTH {
            return None;
        }
        self.call_depth += 1;
        let base = self.stack.len();
        self.stack.resize(base + f.frame, None);
        // In parameter order, so a repeated parameter name binds the
        // later argument; missing arguments bind `undefined`.
        for (i, &slot) in f.params.iter().enumerate() {
            let arg = self
                .args
                .get_mut(mark + i)
                .map_or(Value::Undefined, |v| std::mem::replace(v, Value::Undefined));
            self.stack[base + slot] = Some(arg);
        }
        let result = match self.exec_block(&f.body, base) {
            Flow::Normal => Some(Value::Undefined),
            Flow::Return(v) => Some(v),
            Flow::OutOfGas => None,
        };
        self.stack.truncate(base);
        self.call_depth -= 1;
        result
    }
}

fn binary(op: BinOp, l: Value, r: Value) -> Value {
    match op {
        // String concatenation wins if either side is a string.
        BinOp::Add => match (l, r) {
            (Value::Str(mut s), r) => {
                let _ = write!(s, "{r}");
                Value::Str(s)
            }
            (l, Value::Str(s)) => Value::Str(format!("{l}{s}")),
            (l, r) => Value::Num(l.to_num() + r.to_num()),
        },
        BinOp::Sub => Value::Num(l.to_num() - r.to_num()),
        BinOp::Mul => Value::Num(l.to_num() * r.to_num()),
        BinOp::Div => Value::Num(l.to_num() / r.to_num()),
        BinOp::Rem => Value::Num(l.to_num() % r.to_num()),
        BinOp::Lt => Value::Bool(l.to_num() < r.to_num()),
        BinOp::Gt => Value::Bool(l.to_num() > r.to_num()),
        BinOp::Le => Value::Bool(l.to_num() <= r.to_num()),
        BinOp::Ge => Value::Bool(l.to_num() >= r.to_num()),
        BinOp::Eq => Value::Bool(js_eq(&l, &r)),
        BinOp::Ne => Value::Bool(!js_eq(&l, &r)),
    }
}

fn js_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Undefined, Value::Undefined) => true,
        _ => l.to_num() == r.to_num(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_urls_require_execution() {
        // The corpus pattern: the fetched URL never appears literally.
        let src = r#"
            var base = "http://s/img/dyn";
            var n = 0;
            while (n < 3) { loadImage(base + n + ".jpg"); n = n + 1; }
        "#;
        let out = execute(src, None);
        assert!(out.parse_ok);
        assert_eq!(
            out.effects,
            vec![
                JsEffect::LoadImage("http://s/img/dyn0.jpg".into()),
                JsEffect::LoadImage("http://s/img/dyn1.jpg".into()),
                JsEffect::LoadImage("http://s/img/dyn2.jpg".into()),
            ]
        );
        assert!(out.ops > 10);
    }

    #[test]
    fn document_write_effect() {
        let out = execute("document.write(\"<img src='x.jpg'>\");", None);
        assert_eq!(
            out.effects,
            vec![JsEffect::DocumentWrite("<img src='x.jpg'>".into())]
        );
    }

    #[test]
    fn functions_and_arithmetic() {
        let src = r#"
            function mix(a, b) { return a * 31 + b % 97; }
            var acc = 0;
            var k = 0;
            while (k < 10) { acc = mix(acc, k); k = k + 1; }
            if (acc > 0) { loadImage("got" + acc + ".png"); }
        "#;
        let out = execute(src, None);
        assert_eq!(out.effects.len(), 1);
        // acc is deterministic; recompute in Rust.
        let mut acc = 0i64;
        for k in 0..10 {
            acc = acc * 31 + k % 97;
        }
        assert_eq!(out.effects[0], JsEffect::LoadImage(format!("got{acc}.png")));
    }

    #[test]
    fn dead_branches_produce_no_effects() {
        let out = execute("if (1 > 2) { loadImage(\"never.jpg\"); }", None);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn infinite_loop_hits_gas_limit() {
        let out = execute("while (true) { var x = 1; }", Some(10_000));
        assert!(out.hit_gas_limit);
        assert!(out.ops >= 10_000);
    }

    #[test]
    fn parse_errors_yield_no_effects() {
        let out = execute("loadImage(", None);
        assert!(!out.parse_ok);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn unbounded_recursion_is_cut_off() {
        let out = execute("function f() { return f(); } f();", None);
        // Either gas or call-depth stops it; must not overflow the stack.
        assert!(out.parse_ok);
    }

    #[test]
    fn number_formatting_matches_js() {
        let out = execute("loadImage(\"a\" + 7 + \"_\" + 2.5 + \".png\");", None);
        assert_eq!(out.effects, vec![JsEffect::LoadImage("a7_2.5.png".into())]);
    }

    #[test]
    fn string_comparison_and_equality() {
        let out = execute(
            "if (\"a\" == \"a\") { loadImage(\"eq.png\"); } if (1 != 2) { loadImage(\"ne.png\"); }",
            None,
        );
        assert_eq!(out.effects.len(), 2);
    }

    #[test]
    fn undefined_variables_are_undefined() {
        let out = execute("if (ghost) { loadImage(\"no.png\"); }", None);
        assert!(out.effects.is_empty());
    }

    #[test]
    fn globals_assigned_inside_functions() {
        let src = "function set() { g = 5; } set(); if (g == 5) { loadImage(\"g.png\"); }";
        let out = execute(src, None);
        assert_eq!(out.effects.len(), 1);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn division_and_modulo_by_zero_are_nan_or_inf_not_panics() {
        let out = execute(
            "var a = 1 / 0; var b = 0 / 0; var c = 5 % 0; \
             if (a > 100) { loadImage(\"inf.png\"); }",
            None,
        );
        assert!(out.parse_ok);
        assert_eq!(out.effects, vec![JsEffect::LoadImage("inf.png".into())]);
    }

    #[test]
    fn string_to_number_coercion_in_arithmetic() {
        // "3" * 2 -> 6; "x" * 2 -> NaN (falsy in comparisons).
        let out = execute(
            "var a = \"3\" * 2; if (a == 6) { loadImage(\"six.png\"); } \
             var b = \"x\" * 2; if (b == b) { loadImage(\"nan-equal.png\"); }",
            None,
        );
        // NaN != NaN, so only the first effect fires.
        assert_eq!(out.effects, vec![JsEffect::LoadImage("six.png".into())]);
    }

    #[test]
    fn boolean_coercion_in_concat() {
        let out = execute("loadImage(\"f_\" + true + \".png\");", None);
        assert_eq!(out.effects, vec![JsEffect::LoadImage("f_true.png".into())]);
    }

    #[test]
    fn unary_operators() {
        let out = execute(
            "var a = -3; if (!false) { if (a < 0) { loadImage(\"neg.png\"); } }",
            None,
        );
        assert_eq!(out.effects.len(), 1);
    }

    #[test]
    fn nested_function_calls_and_shadowing() {
        let out = execute(
            "function f(x) { return g(x) + 1; } function g(x) { return x * 2; } \
             var x = 10; if (f(x) == 21) { loadImage(\"ok\" + x + \".png\"); }",
            None,
        );
        assert_eq!(out.effects, vec![JsEffect::LoadImage("ok10.png".into())]);
    }

    #[test]
    fn while_with_early_return_inside_function() {
        let out = execute(
            "function first(n) { var i = 0; while (i < 100) { if (i == n) { return i; } \
             i = i + 1; } return -1; } if (first(7) == 7) { loadImage(\"r.png\"); }",
            None,
        );
        assert_eq!(out.effects.len(), 1);
    }

    #[test]
    fn empty_source_is_fine() {
        let out = execute("", None);
        assert!(out.parse_ok);
        assert!(out.effects.is_empty());
        assert_eq!(out.ops, 0);
    }

    #[test]
    fn args_mismatch_pads_with_undefined() {
        // Missing arguments become `undefined`; as in JS,
        // `undefined == undefined` is true, but `undefined < 1` is false.
        let out = execute(
            "function f(a, b) { if (b == b) { if (b < 1) { return 3; } return 1; } return 2; } \
             if (f(1) == 1) { loadImage(\"pad.png\"); }",
            None,
        );
        assert_eq!(out.effects.len(), 1);
    }
}
