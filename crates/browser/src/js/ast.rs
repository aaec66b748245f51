//! The JavaScript AST and recursive-descent parser.

use super::lexer::{lex, JsToken};
use std::collections::HashMap;
use std::fmt;

/// An interned identifier: an index into [`Program::names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(pub usize);

/// A variable reference, resolved once at parse time so the interpreter
/// addresses frames and globals by index instead of hashing strings on
/// every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    /// The variable's global identity.
    pub name: Name,
    /// Its slot in the frame of the enclosing function (or of the top
    /// level): each distinct name a function body uses gets one.
    pub slot: usize,
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-` (numeric negation).
    Neg,
    /// `!` (logical not).
    Not,
}

/// What a call expression invokes, resolved at parse time: a host API
/// always wins over a script function of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// `loadImage(url)`.
    LoadImage,
    /// `loadScript(url)`.
    LoadScript,
    /// `document.write(html)`.
    DocumentWrite,
    /// A script-defined function, looked up when the call runs.
    Function(Name),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference (possibly a dotted path such as `a.b`).
    Var(Var),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Assignment to a variable (expression-valued, as in JS).
    Assign {
        /// Target variable.
        var: Var,
        /// Value expression.
        value: Box<Expr>,
    },
    /// A call to a plain or dotted name, e.g. `loadImage(x)` or
    /// `document.write(y)`.
    Call {
        /// The resolved callee.
        target: Callee,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var name = init;`
    VarDecl {
        /// The declared variable.
        var: Var,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// An expression statement.
    Expr(Expr),
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_branch: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { .. }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `function name(params) { .. }`
    FunctionDecl(Function),
    /// `return expr;`
    Return(Option<Expr>),
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Name,
    /// The frame slots the parameters bind, in order.
    pub params: Vec<usize>,
    /// Frame size: the distinct names the body uses outside nested
    /// functions, parameters included.
    pub frame: usize,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements.
    pub statements: Vec<Stmt>,
    /// Token count (work accounting).
    pub tokens: usize,
    /// Interned identifiers; a [`Name`] indexes this table.
    pub names: Vec<String>,
    /// Frame size of the top-level code.
    pub frame: usize,
}

/// A parse failure (position + message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Token index where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a program from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on the first construct outside the supported
/// subset; the engine treats that as a script error and continues the page
/// load, exactly like a real browser.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source);
    let n = tokens.len();
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        names: Vec::new(),
        index: HashMap::new(),
        scope: HashMap::new(),
    };
    let mut statements = Vec::new();
    while !p.at_end() {
        statements.push(p.statement()?);
    }
    Ok(Program {
        statements,
        tokens: n,
        names: p.names,
        frame: p.scope.len(),
    })
}

const MAX_DEPTH: usize = 200;

struct Parser {
    tokens: Vec<JsToken>,
    pos: usize,
    depth: usize,
    names: Vec<String>,
    index: HashMap<String, Name>,
    /// Frame slots of the function (or top level) being parsed.
    scope: HashMap<Name, usize>,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&JsToken> {
        self.tokens.get(self.pos)
    }

    /// Takes the current token; the parser never looks back, so the
    /// consumed slot is left empty instead of cloned.
    fn advance(&mut self) -> Option<JsToken> {
        let t = self
            .tokens
            .get_mut(self.pos)
            .map(|t| std::mem::replace(t, JsToken::Punct("")));
        self.pos += 1;
        t
    }

    fn intern(&mut self, name: String) -> Name {
        if let Some(&n) = self.index.get(&name) {
            return n;
        }
        let n = Name(self.names.len());
        self.names.push(name.clone());
        self.index.insert(name, n);
        n
    }

    /// Resolves a variable in the scope being parsed.
    fn var(&mut self, ident: String) -> Var {
        let name = self.intern(ident);
        let next = self.scope.len();
        let slot = *self.scope.entry(name).or_insert(next);
        Var { name, slot }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.advance() {
            Some(JsToken::Punct(q)) if q == p => Ok(()),
            other => Err(self.err(format!("expected '{p}', found {other:?}"))),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let result = self.statement_inner();
        self.leave();
        result
    }

    fn statement_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(JsToken::Keyword("var")) => {
                self.advance();
                let ident = self.ident()?;
                let var = self.var(ident);
                let init = if matches!(self.peek(), Some(JsToken::Punct("="))) {
                    self.advance();
                    Some(self.expression()?)
                } else {
                    None
                };
                self.semi();
                Ok(Stmt::VarDecl { var, init })
            }
            Some(JsToken::Keyword("if")) => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                let then_branch = self.block_or_single()?;
                let else_branch = if matches!(self.peek(), Some(JsToken::Keyword("else"))) {
                    self.advance();
                    self.block_or_single()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Some(JsToken::Keyword("while")) => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body })
            }
            Some(JsToken::Keyword("function")) => {
                self.advance();
                let ident = self.ident()?;
                let name = self.intern(ident);
                self.expect_punct("(")?;
                // A function body resolves its variables in a frame of
                // its own (there are no closures).
                let outer = std::mem::take(&mut self.scope);
                let mut params = Vec::new();
                if !matches!(self.peek(), Some(JsToken::Punct(")"))) {
                    loop {
                        let ident = self.ident()?;
                        params.push(self.var(ident).slot);
                        if matches!(self.peek(), Some(JsToken::Punct(","))) {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect_punct(")")?;
                let body = self.block()?;
                let frame = std::mem::replace(&mut self.scope, outer).len();
                Ok(Stmt::FunctionDecl(Function {
                    name,
                    params,
                    frame,
                    body,
                }))
            }
            Some(JsToken::Keyword("return")) => {
                self.advance();
                let value = if matches!(self.peek(), Some(JsToken::Punct(";")) | None) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.semi();
                Ok(Stmt::Return(value))
            }
            Some(_) => {
                let e = self.expression()?;
                self.semi();
                Ok(Stmt::Expr(e))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes an optional semicolon (ASI-lite).
    fn semi(&mut self) {
        if matches!(self.peek(), Some(JsToken::Punct(";"))) {
            self.advance();
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !matches!(self.peek(), Some(JsToken::Punct("}")) | None) {
            out.push(self.statement()?);
        }
        self.expect_punct("}")?;
        Ok(out)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if matches!(self.peek(), Some(JsToken::Punct("{"))) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(JsToken::Ident(name)) => Ok(name),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.assignment();
        self.leave();
        result
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let left = self.comparison()?;
        if matches!(self.peek(), Some(JsToken::Punct("="))) {
            let Expr::Var(var) = left else {
                return Err(self.err("invalid assignment target"));
            };
            self.advance();
            let value = self.assignment()?;
            return Ok(Expr::Assign {
                var,
                value: Box::new(value),
            });
        }
        Ok(left)
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("==", BinOp::Eq),
                ("!=", BinOp::Ne),
            ],
            Self::additive,
        )
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            Self::multiplicative,
        )
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)],
            Self::unary,
        )
    }

    /// One left-associative precedence level over the operators `ops`.
    fn binary_level(
        &mut self,
        ops: &[(&str, BinOp)],
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let mut left = operand(self)?;
        while let Some(&(_, op)) = match self.peek() {
            Some(JsToken::Punct(p)) => ops.iter().find(|(text, _)| text == p),
            _ => None,
        } {
            self.advance();
            let right = operand(self)?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(JsToken::Punct("-")) => UnaryOp::Neg,
            Some(JsToken::Punct("!")) => UnaryOp::Not,
            _ => return self.postfix(),
        };
        self.advance();
        self.enter()?;
        let operand = self.unary();
        self.leave();
        Ok(Expr::Unary {
            op,
            operand: Box::new(operand?),
        })
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        // A dotted member path (`document.write`) is one name; a
        // parenthesized variable continues the path like a bare one.
        let mut path = match self.advance() {
            Some(JsToken::Ident(name)) => name,
            other => match self.primary(other)? {
                Expr::Var(var) => self.names[var.name.0].clone(),
                e => return Ok(e),
            },
        };
        while matches!(self.peek(), Some(JsToken::Punct("."))) {
            self.advance();
            let field = self.ident()?;
            path = format!("{path}.{field}");
        }
        if !matches!(self.peek(), Some(JsToken::Punct("("))) {
            return Ok(Expr::Var(self.var(path)));
        }
        self.advance();
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(JsToken::Punct(")"))) {
            loop {
                args.push(self.expression()?);
                if matches!(self.peek(), Some(JsToken::Punct(","))) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        let target = match path.as_str() {
            "loadImage" => Callee::LoadImage,
            "loadScript" => Callee::LoadScript,
            "document.write" => Callee::DocumentWrite,
            _ => Callee::Function(self.intern(path)),
        };
        Ok(Expr::Call { target, args })
    }

    /// A non-identifier primary expression, starting at `token`.
    fn primary(&mut self, token: Option<JsToken>) -> Result<Expr, ParseError> {
        match token {
            Some(JsToken::Num(v)) => Ok(Expr::Num(v)),
            Some(JsToken::Str(s)) => Ok(Expr::Str(s)),
            Some(JsToken::Keyword("true")) => Ok(Expr::Bool(true)),
            Some(JsToken::Keyword("false")) => Ok(Expr::Bool(false)),
            Some(JsToken::Punct("(")) => {
                let e = self.expression()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_var_and_while() {
        let p = parse_program("var i = 0; while (i < 3) { i = i + 1; }").unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(
            matches!(&p.statements[0], Stmt::VarDecl { var, .. } if p.names[var.name.0] == "i")
        );
        let Stmt::While { body, .. } = &p.statements[1] else {
            panic!("expected while");
        };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parses_function_and_call() {
        let p =
            parse_program("function mix(a, b) { return a * 31 + b; } var h = mix(1, 2);").unwrap();
        let Stmt::FunctionDecl(f) = &p.statements[0] else {
            panic!("expected function");
        };
        assert_eq!(p.names[f.name.0], "mix");
        assert_eq!(f.params, [0, 1], "a and b take the first two slots");
        assert_eq!(f.frame, 2);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_dotted_call() {
        let p = parse_program("document.write(\"<p>x</p>\");").unwrap();
        let Stmt::Expr(Expr::Call { target, args }) = &p.statements[0] else {
            panic!("expected call");
        };
        assert_eq!(*target, Callee::DocumentWrite);
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn precedence_mul_before_add_before_cmp() {
        let p = parse_program("var x = 1 + 2 * 3 < 10;").unwrap();
        let Stmt::VarDecl { init: Some(e), .. } = &p.statements[0] else {
            panic!()
        };
        // (1 + (2*3)) < 10
        let Expr::Binary {
            op: BinOp::Lt,
            left,
            ..
        } = e
        else {
            panic!("{e:?}")
        };
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = left.as_ref()
        else {
            panic!()
        };
        assert!(matches!(
            right.as_ref(),
            Expr::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn if_else_without_braces() {
        let p = parse_program("if (a < b) x = 1; else x = 2;").unwrap();
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &p.statements[0]
        else {
            panic!()
        };
        assert_eq!(then_branch.len(), 1);
        assert_eq!(else_branch.len(), 1);
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse_program("var x = {a: 1};").is_err());
        assert!(parse_program("x = = 2;").is_err());
        assert!(parse_program("1 = 2;").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let src = format!("var x = {}1{};", "(".repeat(500), ")".repeat(500));
        assert!(parse_program(&src).is_err());
    }

    #[test]
    fn names_are_interned_once_and_framed_per_function() {
        let src = "var a = 1; a = a + b; f(a); function f(a) { var t = a; return t; }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.names, ["a", "b", "f", "t"]);
        assert_eq!(p.frame, 2, "the top level uses a and b");
        let Stmt::FunctionDecl(f) = &p.statements[3] else {
            panic!()
        };
        assert_eq!((f.params.as_slice(), f.frame), (&[0][..], 2), "a, then t");
        let Stmt::Expr(Expr::Call {
            target: Callee::Function(name),
            ..
        }) = &p.statements[2]
        else {
            panic!()
        };
        assert_eq!(*name, f.name);
    }

    #[test]
    fn parenthesized_names_continue_a_member_path() {
        let p = parse_program("(a).b = 1; (document).write(\"x\");").unwrap();
        assert!(
            matches!(&p.statements[0], Stmt::Expr(Expr::Assign { var, .. }) if p.names[var.name.0] == "a.b")
        );
        assert!(matches!(
            &p.statements[1],
            Stmt::Expr(Expr::Call {
                target: Callee::DocumentWrite,
                ..
            })
        ));
    }

    #[test]
    fn token_count_recorded() {
        let p = parse_program("var a = 1;").unwrap();
        assert_eq!(p.tokens, 5);
    }
}
