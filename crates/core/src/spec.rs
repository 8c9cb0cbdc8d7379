//! `ChainSpec` — a parsed, serializable description of *which* chain to run
//! plus *its* parameters.
//!
//! A spec has two equivalent surface forms that round-trip losslessly:
//!
//! * a **string** form for CLI flags and compact manifests —
//!   `par-global-es?pl=0.001&prefetch=off` (a kebab-case chain name,
//!   optionally followed by `?key=value` pairs joined with `&`);
//! * a **JSON** form for manifests and study specs — either the plain string
//!   above, or an object whose `"name"` key names the chain and whose other
//!   keys are the parameters: `{ "name": "par-global-es", "pl": 0.001,
//!   "prefetch": false }`.
//!
//! Parameter values are typed ([`ParamValue`]: bool / integer / float); what
//! a given chain *accepts* is declared by its
//! [`ChainInfo`](crate::registry::ChainInfo) in the
//! [`ChainRegistry`](crate::registry::ChainRegistry), which validates specs
//! before building.  The spec itself only enforces the grammar, so it can
//! describe chains the local registry has never heard of (e.g. when shipping
//! manifests between builds).
//!
//! ```
//! use gesmc_core::ChainSpec;
//!
//! let spec = ChainSpec::parse("par-global-es?pl=0.001&prefetch=off").unwrap();
//! assert_eq!(spec.name, "par-global-es");
//! assert_eq!(spec.to_string(), "par-global-es?pl=0.001&prefetch=false");
//! assert_eq!(ChainSpec::parse(&spec.to_string()).unwrap(), spec);
//! ```

use crate::chain::SwitchingConfig;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Name of the common `P_L` parameter (per-switch rejection probability of
/// the G-ES-MC chains, [`SwitchingConfig::loop_probability`]).
pub const PARAM_LOOP_PROBABILITY: &str = "pl";

/// Name of the common prefetch parameter ([`SwitchingConfig::prefetch`]).
pub const PARAM_PREFETCH: &str = "prefetch";

/// A typed chain parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A boolean (`true`/`false`, also spelled `on`/`off` in string specs).
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
}

impl ParamValue {
    /// Parse the string spelling of a value: `true`/`false`/`on`/`off` →
    /// [`ParamValue::Bool`], an integer literal → [`ParamValue::Int`], any
    /// other number → [`ParamValue::Float`].
    pub fn parse(raw: &str) -> Result<Self, ChainError> {
        match raw {
            "true" | "on" => return Ok(ParamValue::Bool(true)),
            "false" | "off" => return Ok(ParamValue::Bool(false)),
            _ => {}
        }
        if let Ok(i) = raw.parse::<i64>() {
            return Ok(ParamValue::Int(i));
        }
        if let Ok(f) = raw.parse::<f64>() {
            if f.is_finite() {
                return Ok(ParamValue::Float(f));
            }
        }
        Err(ChainError::Grammar(format!(
            "parameter value {raw:?} is not a bool (true/false/on/off), integer, or finite number"
        )))
    }

    /// The boolean payload (`None` for non-bool values).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload (`None` for non-integer values).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload; integers coerce to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(i) => Some(*i as f64),
            ParamValue::Float(f) => Some(*f),
            ParamValue::Bool(_) => None,
        }
    }

    /// The JSON encoding of the value.
    ///
    /// Integers whose magnitude exceeds `2^53` are encoded as strings (JSON
    /// numbers are `f64`-backed here and would silently lose low bits);
    /// [`ParamValue::from_json`] parses them back, so the JSON form
    /// round-trips losslessly for the full `i64` range.
    pub fn to_json(&self) -> Value {
        match self {
            ParamValue::Bool(b) => Value::Bool(*b),
            ParamValue::Int(i) if i.unsigned_abs() <= 1 << 53 => Value::Number(*i as f64),
            ParamValue::Int(i) => Value::String(i.to_string()),
            ParamValue::Float(f) => Value::Number(*f),
        }
    }

    /// Convert a JSON value (integral numbers become [`ParamValue::Int`];
    /// strings are parsed like the string-spec spelling, so `"off"` works).
    pub fn from_json(value: &Value) -> Result<Self, ChainError> {
        match value {
            Value::Bool(b) => Ok(ParamValue::Bool(*b)),
            Value::Number(n) if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 => {
                Ok(ParamValue::Int(*n as i64))
            }
            Value::Number(n) if n.is_finite() => Ok(ParamValue::Float(*n)),
            Value::String(s) => ParamValue::parse(s),
            other => Err(ChainError::Grammar(format!(
                "parameter value {other:?} must be a bool, number, or string"
            ))),
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// Errors raised while parsing a [`ChainSpec`] or resolving it against a
/// [`ChainRegistry`](crate::registry::ChainRegistry).
///
/// These are plain errors, never panics: malformed user input (CLI flags,
/// manifests, study specs) must surface as readable messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// The spec string or JSON value violates the grammar.
    Grammar(String),
    /// No registered chain answers to this name.
    UnknownChain {
        /// The name that failed to resolve.
        name: String,
        /// Every name the registry does know, in registration order.
        known: Vec<String>,
    },
    /// The named chain does not accept this parameter.
    UnknownParam {
        /// The chain the spec addressed.
        chain: String,
        /// The offending parameter name.
        param: String,
        /// The parameters the chain does accept.
        accepted: Vec<String>,
    },
    /// A parameter value has the wrong type or an out-of-range value.
    BadParam {
        /// The chain the spec addressed.
        chain: String,
        /// The offending parameter name.
        param: String,
        /// What was wrong with the value.
        message: String,
    },
    /// The chain cannot run on this graph.
    UnsupportedGraph {
        /// The chain the spec addressed.
        chain: String,
        /// Which of the chain's limits the graph exceeds.
        message: String,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Grammar(msg) => write!(f, "invalid chain spec: {msg}"),
            ChainError::UnknownChain { name, known } => {
                write!(f, "unknown chain {name:?} (known: {})", known.join(", "))
            }
            ChainError::UnknownParam { chain, param, accepted } => {
                if accepted.is_empty() {
                    write!(f, "chain {chain:?} takes no parameters (got {param:?})")
                } else {
                    write!(
                        f,
                        "chain {chain:?} does not accept parameter {param:?} (accepted: {})",
                        accepted.join(", ")
                    )
                }
            }
            ChainError::BadParam { chain, param, message } => {
                write!(f, "chain {chain:?}, parameter {param:?}: {message}")
            }
            ChainError::UnsupportedGraph { chain, message } => {
                write!(f, "chain {chain:?} cannot run this graph: {message}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// A parsed, serializable description of which chain to run and with which
/// parameters (see the [module docs](self) for the two surface forms).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// The chain's registry name (kebab-case, e.g. `par-global-es`).
    pub name: String,
    /// The typed parameters, sorted by name (the canonical order of the
    /// string form).
    pub params: BTreeMap<String, ParamValue>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c))
}

impl ChainSpec {
    /// A spec naming `name` with no parameters.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), params: BTreeMap::new() }
    }

    /// Parse the string form: `name` or `name?key=value&key=value`.
    pub fn parse(text: &str) -> Result<Self, ChainError> {
        let (name, query) = match text.split_once('?') {
            Some((name, query)) => (name, Some(query)),
            None => (text, None),
        };
        if !valid_name(name) {
            return Err(ChainError::Grammar(format!(
                "chain name {name:?} must be non-empty kebab-case [a-z0-9-]"
            )));
        }
        let mut spec = ChainSpec::new(name);
        if let Some(query) = query {
            for pair in query.split('&') {
                let (key, raw) = pair.split_once('=').ok_or_else(|| {
                    ChainError::Grammar(format!("parameter {pair:?} is not of the form key=value"))
                })?;
                if !valid_key(key) {
                    return Err(ChainError::Grammar(format!(
                        "parameter name {key:?} must be non-empty [a-z0-9_-]"
                    )));
                }
                if spec.params.insert(key.to_string(), ParamValue::parse(raw)?).is_some() {
                    return Err(ChainError::Grammar(format!("parameter {key:?} given twice")));
                }
            }
        }
        Ok(spec)
    }

    /// Parse the JSON form: a string (handled exactly like [`ChainSpec::parse`])
    /// or an object with a `"name"` key whose other keys are parameters.
    pub fn from_json(value: &Value) -> Result<Self, ChainError> {
        match value {
            Value::String(s) => Self::parse(s),
            Value::Object(map) => {
                let name = map.get("name").and_then(Value::as_str).ok_or_else(|| {
                    ChainError::Grammar(
                        "chain object needs a \"name\" string key (e.g. {\"name\": \"seq-es\"})"
                            .to_string(),
                    )
                })?;
                if !valid_name(name) {
                    return Err(ChainError::Grammar(format!(
                        "chain name {name:?} must be non-empty kebab-case [a-z0-9-]"
                    )));
                }
                let mut spec = ChainSpec::new(name);
                for (key, raw) in map.iter() {
                    if key == "name" {
                        continue;
                    }
                    if !valid_key(key) {
                        return Err(ChainError::Grammar(format!(
                            "parameter name {key:?} must be non-empty [a-z0-9_-]"
                        )));
                    }
                    spec.params.insert(key.clone(), ParamValue::from_json(raw)?);
                }
                Ok(spec)
            }
            other => Err(ChainError::Grammar(format!(
                "chain spec must be a string or object, got {other:?}"
            ))),
        }
    }

    /// The JSON form: the plain name string for parameter-less specs, the
    /// flat `{"name": …, param: value, …}` object otherwise.
    pub fn to_json(&self) -> Value {
        if self.params.is_empty() {
            return Value::String(self.name.clone());
        }
        let mut map = Map::new();
        map.insert("name".to_string(), Value::String(self.name.clone()));
        for (key, value) in &self.params {
            map.insert(key.clone(), value.to_json());
        }
        Value::Object(map)
    }

    /// Builder-style parameter insertion.
    pub fn with_param(mut self, key: impl Into<String>, value: ParamValue) -> Self {
        self.params.insert(key.into(), value);
        self
    }

    /// Look a parameter up by name.
    pub fn param(&self, key: &str) -> Option<&ParamValue> {
        self.params.get(key)
    }

    /// A file-name-safe rendering (`[a-z0-9._-]`): the name, followed by
    /// `-key-value` per parameter in canonical order.  Used wherever the spec
    /// keys a file name or CSV row (e.g. study cell names).
    pub fn slug(&self) -> String {
        let mut out = self.name.clone();
        for (key, value) in &self.params {
            out.push('-');
            out.push_str(key);
            out.push('-');
            out.push_str(&value.to_string());
        }
        out
    }

    /// Build the [`SwitchingConfig`] the spec's *common* parameters describe:
    /// `pl` ([`SwitchingConfig::loop_probability`], a float in `[0, 1)`) and
    /// `prefetch` ([`SwitchingConfig::prefetch`], a bool), around `seed`.
    ///
    /// Malformed values are reported as [`ChainError::BadParam`], never
    /// panics; whether the chain *accepts* these parameters at all is the
    /// registry's per-chain validation, not this method's.
    pub fn switching_config(&self, seed: u64) -> Result<SwitchingConfig, ChainError> {
        let mut config = SwitchingConfig::with_seed(seed);
        if let Some(value) = self.param(PARAM_LOOP_PROBABILITY) {
            let p = value.as_f64().ok_or_else(|| ChainError::BadParam {
                chain: self.name.clone(),
                param: PARAM_LOOP_PROBABILITY.to_string(),
                message: format!("expected a number in [0, 1), got {value}"),
            })?;
            if !(0.0..1.0).contains(&p) {
                return Err(ChainError::BadParam {
                    chain: self.name.clone(),
                    param: PARAM_LOOP_PROBABILITY.to_string(),
                    message: format!("P_L must lie in [0, 1), got {p}"),
                });
            }
            config.loop_probability = p;
        }
        if let Some(value) = self.param(PARAM_PREFETCH) {
            config.prefetch = value.as_bool().ok_or_else(|| ChainError::BadParam {
                chain: self.name.clone(),
                param: PARAM_PREFETCH.to_string(),
                message: format!("expected a bool (true/false/on/off), got {value}"),
            })?;
        }
        Ok(config)
    }
}

impl std::fmt::Display for ChainSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            write!(f, "{}{key}={value}", if i == 0 { '?' } else { '&' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_names_parse_and_display() {
        let spec = ChainSpec::parse("seq-global-es").unwrap();
        assert_eq!(spec, ChainSpec::new("seq-global-es"));
        assert_eq!(spec.to_string(), "seq-global-es");
        assert_eq!(spec.slug(), "seq-global-es");
    }

    #[test]
    fn parameters_parse_typed_and_canonicalise() {
        let spec = ChainSpec::parse("par-global-es?prefetch=off&pl=0.001").unwrap();
        assert_eq!(spec.param("pl"), Some(&ParamValue::Float(0.001)));
        assert_eq!(spec.param("prefetch"), Some(&ParamValue::Bool(false)));
        // Canonical order is sorted by key; on/off normalise to true/false.
        assert_eq!(spec.to_string(), "par-global-es?pl=0.001&prefetch=false");
        assert_eq!(spec.slug(), "par-global-es-pl-0.001-prefetch-false");
        assert_eq!(ChainSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn string_roundtrip_for_every_value_kind() {
        for text in ["x?a=true", "x?a=-3", "x?a=42", "x?a=0.125", "x?a=1e-3"] {
            let spec = ChainSpec::parse(text).unwrap();
            assert_eq!(ChainSpec::parse(&spec.to_string()).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn grammar_errors_are_reported() {
        for bad in ["", "Bad Name", "se q", "x?pl", "x?=1", "x?pl=0.1&pl=0.2", "x?pl=abc", "x?PL=1"]
        {
            let err = ChainSpec::parse(bad).unwrap_err();
            assert!(matches!(err, ChainError::Grammar(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn json_string_and_object_forms_are_equivalent() {
        let from_string =
            ChainSpec::from_json(&serde_json::from_str("\"par-global-es?pl=0.001\"").unwrap())
                .unwrap();
        let from_object = ChainSpec::from_json(
            &serde_json::from_str(r#"{"name": "par-global-es", "pl": 0.001}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(from_string, from_object);
        // JSON round-trip through to_json.
        assert_eq!(ChainSpec::from_json(&from_object.to_json()).unwrap(), from_object);
        let plain = ChainSpec::new("seq-es");
        assert_eq!(plain.to_json(), Value::String("seq-es".into()));
        assert_eq!(ChainSpec::from_json(&plain.to_json()).unwrap(), plain);
    }

    #[test]
    fn json_object_values_are_typed() {
        let spec = ChainSpec::from_json(
            &serde_json::from_str(r#"{"name": "x", "a": true, "b": 3, "c": 0.5, "d": "off"}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(spec.param("a"), Some(&ParamValue::Bool(true)));
        assert_eq!(spec.param("b"), Some(&ParamValue::Int(3)));
        assert_eq!(spec.param("c"), Some(&ParamValue::Float(0.5)));
        assert_eq!(spec.param("d"), Some(&ParamValue::Bool(false)));
    }

    #[test]
    fn json_errors_are_reported() {
        for bad in ["3", "[]", "{}", r#"{"name": 3}"#, r#"{"name": "x", "p": null}"#] {
            let value = serde_json::from_str(bad).unwrap();
            assert!(ChainSpec::from_json(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn switching_config_reads_common_params() {
        let spec = ChainSpec::parse("seq-global-es?pl=0.25&prefetch=off").unwrap();
        let config = spec.switching_config(7).unwrap();
        assert_eq!(config.seed, 7);
        assert!((config.loop_probability - 0.25).abs() < 1e-12);
        assert!(!config.prefetch);
        // Defaults when the params are absent.
        let config = ChainSpec::new("seq-es").switching_config(1).unwrap();
        assert!((config.loop_probability - 0.01).abs() < 1e-12);
        assert!(config.prefetch);
    }

    #[test]
    fn switching_config_rejects_bad_values_without_panicking() {
        for (bad, param) in [("x?pl=1.5", "pl"), ("x?pl=true", "pl"), ("x?prefetch=3", "prefetch")]
        {
            let err = ChainSpec::parse(bad).unwrap().switching_config(0).unwrap_err();
            match err {
                ChainError::BadParam { param: p, .. } => assert_eq!(p, param, "{bad}"),
                other => panic!("{bad}: expected BadParam, got {other}"),
            }
        }
    }

    #[test]
    fn huge_integers_survive_the_json_form() {
        // JSON numbers are f64-backed; integers beyond 2^53 round-trip via
        // the string encoding instead of silently losing low bits.
        let spec = ChainSpec::parse("x?a=9007199254740993").unwrap();
        assert_eq!(spec.param("a"), Some(&ParamValue::Int(9007199254740993)));
        assert_eq!(ChainSpec::from_json(&spec.to_json()).unwrap(), spec);
        let small = ChainSpec::parse("x?a=42").unwrap();
        assert_eq!(small.to_json().get("a").and_then(Value::as_u64), Some(42));
    }

    #[test]
    fn integer_pl_coerces_to_float() {
        let spec = ChainSpec::parse("x?pl=0").unwrap();
        assert_eq!(spec.param("pl"), Some(&ParamValue::Int(0)));
        assert!((spec.switching_config(0).unwrap().loop_probability).abs() < 1e-12);
    }
}
