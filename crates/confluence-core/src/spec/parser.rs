//! Parser for the workflow specification language.
//!
//! Hand-rolled lexer + recursive descent; errors carry line numbers.

use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow, WorkflowBuilder};
use crate::time::Micros;
use crate::token::Token as DataToken;
use crate::window::{GroupBy, WindowSpec};

use super::registry::{ActorRegistry, Params};

/// Parse a workflow spec, instantiating actors through the registry.
pub fn parse(source: &str, registry: &ActorRegistry) -> Result<Workflow> {
    Parser::new(source, registry)?.parse_workflow()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Arrow,
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Dot,
    Eq,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Eq => write!(f, "`=`"),
        }
    }
}

fn lex(source: &str) -> Result<Vec<(Tok, u32)>> {
    let mut out = Vec::new();
    let mut chars = source.chars().peekable();
    let mut line: u32 = 1;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                out.push((Tok::LBrace, line));
                chars.next();
            }
            '}' => {
                out.push((Tok::RBrace, line));
                chars.next();
            }
            '(' => {
                out.push((Tok::LParen, line));
                chars.next();
            }
            ')' => {
                out.push((Tok::RParen, line));
                chars.next();
            }
            '[' => {
                out.push((Tok::LBracket, line));
                chars.next();
            }
            ']' => {
                out.push((Tok::RBracket, line));
                chars.next();
            }
            ',' => {
                out.push((Tok::Comma, line));
                chars.next();
            }
            ':' => {
                out.push((Tok::Colon, line));
                chars.next();
            }
            '.' => {
                out.push((Tok::Dot, line));
                chars.next();
            }
            '=' => {
                out.push((Tok::Eq, line));
                chars.next();
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some('>') => {
                        chars.next();
                        out.push((Tok::Arrow, line));
                    }
                    Some(c) if c.is_ascii_digit() => {
                        let (tok, _) = lex_number(&mut chars, true, line)?;
                        out.push((tok, line));
                    }
                    _ => {
                        return Err(Error::Graph(format!(
                            "spec syntax error at line {line}: stray `-`"
                        )))
                    }
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => {
                            return Err(Error::Graph(format!(
                                "spec syntax error at line {line}: unterminated string"
                            )))
                        }
                        Some(c) => s.push(c),
                    }
                }
                out.push((Tok::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let (tok, _) = lex_number(&mut chars, false, line)?;
                out.push((tok, line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(s), line));
            }
            other => {
                return Err(Error::Graph(format!(
                    "spec syntax error at line {line}: unexpected character `{other}`"
                )))
            }
        }
    }
    Ok(out)
}

fn lex_number(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    negative: bool,
    line: u32,
) -> Result<(Tok, u32)> {
    let mut s = String::new();
    if negative {
        s.push('-');
    }
    let mut is_float = false;
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() || c == '_' {
            if c != '_' {
                s.push(c);
            }
            chars.next();
        } else if c == '.' {
            // Lookahead: `1.5` is a float, `a.b` port syntax never starts
            // with a digit, so a dot after digits is always a fraction.
            is_float = true;
            s.push(c);
            chars.next();
        } else {
            break;
        }
    }
    if is_float {
        s.parse::<f64>()
            .map(|v| (Tok::Float(v), line))
            .map_err(|_| Error::Graph(format!("spec syntax error at line {line}: bad number `{s}`")))
    } else {
        s.parse::<i64>()
            .map(|v| (Tok::Int(v), line))
            .map_err(|_| Error::Graph(format!("spec syntax error at line {line}: bad number `{s}`")))
    }
}

struct Parser<'a> {
    tokens: Vec<(Tok, u32)>,
    pos: usize,
    registry: &'a ActorRegistry,
}

impl<'a> Parser<'a> {
    fn new(source: &str, registry: &'a ActorRegistry) -> Result<Self> {
        Ok(Parser {
            tokens: lex(source)?,
            pos: 0,
            registry,
        })
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    fn err(&self, msg: impl std::fmt::Display) -> Error {
        Error::Graph(format!("spec error at line {}: {msg}", self.line()))
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok) -> Result<()> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected {want}, found {got}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an identifier, found {other}")))
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        let s = self.ident()?;
        if s == kw {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected `{kw}`, found `{s}`")))
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_workflow(&mut self) -> Result<Workflow> {
        self.keyword("workflow")?;
        let name = match self.next()? {
            Tok::Ident(s) => s,
            Tok::Str(s) => s,
            other => {
                self.pos -= 1;
                return Err(self.err(format!("expected workflow name, found {other}")));
            }
        };
        let mut b = WorkflowBuilder::new(name);
        let mut actors: Vec<(String, ActorId)> = Vec::new();
        self.expect(&Tok::LBrace)?;
        loop {
            if matches!(self.peek(), Some(Tok::RBrace)) {
                self.pos += 1;
                break;
            }
            let stmt = self.ident()?;
            match stmt.as_str() {
                "actor" => self.parse_actor(&mut b, &mut actors)?,
                "connect" => self.parse_connect(&mut b, &actors)?,
                "priority" => {
                    let who = self.ident()?;
                    self.expect(&Tok::Eq)?;
                    let p = self.int()?;
                    let id = lookup(&actors, &who).map_err(|e| self.err(e))?;
                    b.set_priority(id, p as i32);
                }
                "expired" => {
                    let (from, from_port) = self.port()?;
                    self.expect(&Tok::Arrow)?;
                    let (to, to_port) = self.port()?;
                    let from_id = lookup(&actors, &from).map_err(|e| self.err(e))?;
                    let to_id = lookup(&actors, &to).map_err(|e| self.err(e))?;
                    b.expired_handler(from_id.port(from_port), to_id.port(to_port))?;
                }
                other => {
                    self.pos -= 1;
                    return Err(self.err(format!(
                        "expected `actor`, `connect`, `priority` or `expired`, found `{other}`"
                    )));
                }
            }
        }
        if self.pos != self.tokens.len() {
            return Err(self.err(format!(
                "unexpected content after the workflow block: {}",
                self.tokens[self.pos].0
            )));
        }
        b.build()
    }

    fn parse_actor(
        &mut self,
        b: &mut WorkflowBuilder,
        actors: &mut Vec<(String, ActorId)>,
    ) -> Result<()> {
        let name = self.ident()?;
        self.expect(&Tok::Eq)?;
        let type_name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params: Vec<(String, DataToken)> = Vec::new();
        if !matches!(self.peek(), Some(Tok::RParen)) {
            loop {
                let key = self.ident()?;
                self.expect(&Tok::Colon)?;
                let value = self.value()?;
                params.push((key, value));
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        if actors.iter().any(|(n, _)| n == &name) {
            return Err(self.err(format!("duplicate actor `{name}`")));
        }
        let actor = self
            .registry
            .construct(&type_name, &Params::new(params))
            .map_err(|e| self.err(e))?;
        let id = b.add_boxed_actor(name.clone(), actor);
        actors.push((name, id));
        Ok(())
    }

    fn parse_connect(
        &mut self,
        b: &mut WorkflowBuilder,
        actors: &[(String, ActorId)],
    ) -> Result<()> {
        let (from, from_port) = self.port()?;
        self.expect(&Tok::Arrow)?;
        let (to, to_port) = self.port()?;
        let from_id = lookup(actors, &from).map_err(|e| self.err(e))?;
        let to_id = lookup(actors, &to).map_err(|e| self.err(e))?;
        let (from, to) = (from_id.port(from_port), to_id.port(to_port));
        if self.eat_ident("window") {
            let spec = self.window_spec()?;
            b.link_windowed(from, to, spec)?;
        } else {
            b.link(from, to)?;
        }
        Ok(())
    }

    fn window_spec(&mut self) -> Result<WindowSpec> {
        let kind = self.ident()?;
        let mut spec = match kind.as_str() {
            "tuples" => {
                self.expect(&Tok::LParen)?;
                let size = self.int()? as usize;
                self.expect(&Tok::Comma)?;
                let step = self.int()? as usize;
                self.expect(&Tok::RParen)?;
                WindowSpec::tuples(size, step)
            }
            "time" => {
                self.expect(&Tok::LParen)?;
                let size = self.duration()?;
                self.expect(&Tok::Comma)?;
                let step = self.duration()?;
                self.expect(&Tok::RParen)?;
                WindowSpec::time(size, step)
            }
            "wave" => WindowSpec::wave(),
            "each" => WindowSpec::each_event(),
            other => {
                self.pos -= 1;
                return Err(self.err(format!(
                    "expected `tuples`, `time`, `wave` or `each`, found `{other}`"
                )));
            }
        };
        loop {
            if self.eat_ident("group_by") {
                self.expect(&Tok::LParen)?;
                let mut fields = Vec::new();
                loop {
                    fields.push(self.ident()?);
                    if matches!(self.peek(), Some(Tok::Comma)) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
                let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
                spec = spec.group_by(GroupBy::fields(&refs));
            } else if self.eat_ident("delete_used") {
                spec = spec.delete_used(true);
            } else if self.eat_ident("timeout") {
                self.expect(&Tok::LParen)?;
                let d = self.duration()?;
                self.expect(&Tok::RParen)?;
                spec = spec.with_timeout(d);
            } else {
                break;
            }
        }
        Ok(spec)
    }

    fn port(&mut self) -> Result<(String, String)> {
        let actor = self.ident()?;
        self.expect(&Tok::Dot)?;
        let port = self.ident()?;
        Ok((actor, port))
    }

    fn int(&mut self) -> Result<i64> {
        match self.next()? {
            Tok::Int(v) => Ok(v),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an integer, found {other}")))
            }
        }
    }

    /// A duration: `5s`, `250ms`, `10us` (the unit lexes as a trailing
    /// identifier).
    fn duration(&mut self) -> Result<Micros> {
        let n = self.int()?;
        if n < 0 {
            return Err(self.err("durations must be non-negative"));
        }
        let unit = self.ident()?;
        match unit.as_str() {
            "s" => Ok(Micros::from_secs(n as u64)),
            "ms" => Ok(Micros::from_millis(n as u64)),
            "us" => Ok(Micros(n as u64)),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected a duration unit (s/ms/us), found `{other}`")))
            }
        }
    }

    fn value(&mut self) -> Result<DataToken> {
        match self.next()? {
            Tok::Int(v) => Ok(DataToken::Int(v)),
            Tok::Float(v) => Ok(DataToken::Float(v)),
            Tok::Str(s) => Ok(DataToken::str(&s)),
            Tok::Ident(s) if s == "true" => Ok(DataToken::Bool(true)),
            Tok::Ident(s) if s == "false" => Ok(DataToken::Bool(false)),
            // Bare identifiers are strings (field names read naturally).
            Tok::Ident(s) => Ok(DataToken::str(&s)),
            Tok::LBracket => {
                let mut items = Vec::new();
                if !matches!(self.peek(), Some(Tok::RBracket)) {
                    loop {
                        items.push(self.value()?);
                        if matches!(self.peek(), Some(Tok::Comma)) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                Ok(DataToken::array(items))
            }
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected a value, found {other}")))
            }
        }
    }
}

fn lookup(actors: &[(String, ActorId)], name: &str) -> std::result::Result<ActorId, String> {
    actors
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, id)| *id)
        .ok_or_else(|| format!("unknown actor `{name}` (declare it with `actor` first)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_basics() {
        let toks = lex("workflow w { a.b -> c.d } # comment\n[1, 2.5, \"x\"] 5s").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|(t, _)| t).collect();
        assert!(matches!(kinds[0], Tok::Ident(s) if s == "workflow"));
        assert!(kinds.contains(&&Tok::Arrow));
        assert!(kinds.contains(&&Tok::Float(2.5)));
        assert!(kinds.contains(&&Tok::Str("x".into())));
        // 5s lexes as Int(5), Ident("s").
        let pos5 = kinds.iter().position(|t| **t == Tok::Int(5)).unwrap();
        assert!(matches!(kinds[pos5 + 1], Tok::Ident(s) if s == "s"));
    }

    #[test]
    fn lexer_line_numbers_and_errors() {
        let err = lex("ok\n  @").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = lex("\"unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        let err = lex("a - b").unwrap_err();
        assert!(err.to_string().contains("stray"), "{err}");
    }

    #[test]
    fn negative_numbers() {
        let toks = lex("x: -5").unwrap();
        assert!(toks.iter().any(|(t, _)| *t == Tok::Int(-5)));
    }
}
