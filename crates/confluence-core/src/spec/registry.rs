//! The actor registry: mapping spec-language type names to constructors.

use std::collections::HashMap;
use std::sync::Arc;

use crate::actor::Actor;
use crate::actors::{Dedup, Throttle, Union};
use crate::error::{Error, Result};
use crate::time::Micros;
use crate::token::Token;

/// Parameters of one actor instantiation in a spec:
/// `dedup(keys: [a, b], capacity: 100)` becomes
/// `{keys: Array[Str], capacity: Int}`.
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: HashMap<String, Token>,
}

impl Params {
    /// Build from `(name, value)` pairs.
    pub fn new(values: impl IntoIterator<Item = (String, Token)>) -> Self {
        Params {
            values: values.into_iter().collect(),
        }
    }

    /// Raw access.
    pub fn get(&self, name: &str) -> Option<&Token> {
        self.values.get(name)
    }

    /// A required integer parameter.
    pub fn int(&self, name: &str) -> Result<i64> {
        self.get(name)
            .ok_or_else(|| Error::Graph(format!("missing parameter `{name}`")))?
            .as_int()
    }

    /// An optional integer parameter with a default.
    pub fn int_or(&self, name: &str, default: i64) -> Result<i64> {
        match self.get(name) {
            Some(t) => t.as_int(),
            None => Ok(default),
        }
    }

    /// A required non-negative integer parameter.
    fn count(&self, name: &str) -> Result<usize> {
        non_negative(name, self.int(name)?)
    }

    /// An optional non-negative integer parameter with a default.
    fn count_or(&self, name: &str, default: usize) -> Result<usize> {
        non_negative(name, self.int_or(name, default as i64)?)
    }

    /// A required list-of-identifiers parameter, as strings.
    pub fn names(&self, name: &str) -> Result<Vec<String>> {
        let arr = self
            .get(name)
            .ok_or_else(|| Error::Graph(format!("missing parameter `{name}`")))?
            .as_array()?;
        arr.iter()
            .map(|t| Ok(t.as_str()?.to_string()))
            .collect()
    }
}

fn non_negative(name: &str, v: i64) -> Result<usize> {
    usize::try_from(v)
        .map_err(|_| Error::Graph(format!("parameter `{name}` must be non-negative, got {v}")))
}

type Constructor = Arc<dyn Fn(&Params) -> Result<Box<dyn Actor>> + Send + Sync>;

/// Maps actor type names to constructors.
#[derive(Clone, Default)]
pub struct ActorRegistry {
    constructors: HashMap<String, Constructor>,
}

impl ActorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the parameterizable standard actors:
    ///
    /// * `union(inputs: N)` — merge N streams;
    /// * `dedup(keys: [a, b], capacity: N)` — first event per key;
    /// * `throttle(max: N, per_ms: M)` — rate limiting.
    ///
    /// Sources and sinks are application-specific (they close over feeds
    /// and collectors), so applications register those themselves.
    pub fn with_standard_actors() -> Self {
        let mut reg = Self::new();
        reg.register("union", |p: &Params| Ok(Box::new(Union::new(p.count_or("inputs", 2)?))));
        reg.register("dedup", |p: &Params| {
            let keys = p.names("keys")?;
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            Ok(Box::new(Dedup::new(&refs, p.count_or("capacity", 4096)?)))
        });
        reg.register("throttle", |p: &Params| {
            let per_ms = p.count_or("per_ms", 1000)? as u64;
            let per = per_ms.checked_mul(1_000).map(Micros).ok_or_else(|| {
                Error::Graph(format!("parameter `per_ms` is out of range, got {per_ms}"))
            })?;
            Ok(Box::new(Throttle::new(p.count("max")? as u64, per)))
        });
        reg
    }

    /// Register (or replace) a constructor for `type_name`.
    pub fn register(
        &mut self,
        type_name: &str,
        constructor: impl Fn(&Params) -> Result<Box<dyn Actor>> + Send + Sync + 'static,
    ) {
        self.constructors
            .insert(type_name.to_string(), Arc::new(constructor));
    }

    /// Instantiate an actor of `type_name` with `params`.
    pub fn construct(&self, type_name: &str, params: &Params) -> Result<Box<dyn Actor>> {
        let ctor = self.constructors.get(type_name).ok_or_else(|| {
            Error::Graph(format!("unknown actor type `{type_name}` (not registered)"))
        })?;
        ctor(params)
    }

    /// Registered type names (sorted).
    pub fn type_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.constructors.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Debug for ActorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorRegistry")
            .field("types", &self.type_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_types_present() {
        let reg = ActorRegistry::with_standard_actors();
        assert_eq!(reg.type_names(), vec!["dedup", "throttle", "union"]);
    }

    #[test]
    fn construct_with_params() {
        let reg = ActorRegistry::with_standard_actors();
        let p = Params::new([("inputs".to_string(), Token::Int(3))]);
        let a = reg.construct("union", &p).unwrap();
        assert_eq!(a.signature().inputs.len(), 3);
        assert!(reg.construct("nope", &p).is_err());
    }

    #[test]
    fn param_accessors() {
        let p = Params::new([
            ("n".to_string(), Token::Int(7)),
            (
                "keys".to_string(),
                Token::array(vec![Token::str("a"), Token::str("b")]),
            ),
        ]);
        assert_eq!(p.int("n").unwrap(), 7);
        assert!(p.int("missing").is_err());
        assert_eq!(p.int_or("missing", 9).unwrap(), 9);
        assert_eq!(p.names("keys").unwrap(), vec!["a", "b"]);
        assert!(p.names("n").is_err());
        assert!(p.get("keys").is_some());
    }
}
