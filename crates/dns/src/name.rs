//! Domain names.
//!
//! Names are stored normalised: lowercase ASCII, no trailing dot. The
//! paper resolves every Alexa entry twice — as listed ("w/o www domain")
//! and with a `www.` label prepended — and compares the resulting prefix
//! footprints (Fig 1); [`DomainName::with_www`]/[`DomainName::without_www`]
//! provide that pairing.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

/// A normalised domain name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DomainName(String);

/// Why a name failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// Empty input or empty label (consecutive dots).
    EmptyLabel(String),
    /// A label exceeded 63 octets or the name 253.
    TooLong(String),
    /// A character outside `[a-z0-9-_]` (after lowercasing).
    BadCharacter(String),
    /// A label started or ended with `-`.
    BadHyphen(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel(s) => write!(f, "empty label in {s:?}"),
            NameError::TooLong(s) => write!(f, "name or label too long: {s:?}"),
            NameError::BadCharacter(s) => write!(f, "invalid character in {s:?}"),
            NameError::BadHyphen(s) => write!(f, "label starts/ends with hyphen: {s:?}"),
        }
    }
}

impl std::error::Error for NameError {}

impl DomainName {
    /// Parse and normalise.
    pub fn parse(input: &str) -> Result<DomainName, NameError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        let lower = trimmed.to_ascii_lowercase();
        if lower.is_empty() {
            return Err(NameError::EmptyLabel(input.to_string()));
        }
        if lower.len() > 253 {
            return Err(NameError::TooLong(input.to_string()));
        }
        for label in lower.split('.') {
            if label.is_empty() {
                return Err(NameError::EmptyLabel(input.to_string()));
            }
            if label.len() > 63 {
                return Err(NameError::TooLong(input.to_string()));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(NameError::BadHyphen(input.to_string()));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
            {
                return Err(NameError::BadCharacter(input.to_string()));
            }
        }
        Ok(DomainName(lower))
    }

    /// The normalised textual form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The labels, left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Whether the left-most label is `www`.
    pub fn is_www(&self) -> bool {
        self.0 == "www" || self.0.starts_with("www.")
    }

    /// The name with a `www.` label prepended (self if already `www.`).
    pub fn with_www(&self) -> DomainName {
        if self.is_www() {
            self.clone()
        } else {
            DomainName(format!("www.{}", self.0))
        }
    }

    /// The name with a leading `www.` removed (self if absent).
    pub fn without_www(&self) -> DomainName {
        match self.0.strip_prefix("www.") {
            Some(rest) if !rest.is_empty() => DomainName(rest.to_string()),
            _ => self.clone(),
        }
    }

    /// The parent name (one label removed from the left), if any.
    pub fn parent(&self) -> Option<DomainName> {
        self.0
            .split_once('.')
            .map(|(_, rest)| DomainName(rest.to_string()))
    }

    /// Whether `self` equals `other` or is a subdomain of it.
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        self == other
            || (self.0.len() > other.0.len()
                && self.0.ends_with(&other.0)
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }

    /// Whether the name ends with the given suffix string (used by the
    /// HTTPArchive-style CDN pattern classifier). The suffix is matched
    /// ASCII case-insensitively and only at a label boundary.
    pub fn has_suffix(&self, suffix: &str) -> bool {
        let (name, suffix) = (self.0.as_bytes(), suffix.as_bytes());
        let Some(split) = name.len().checked_sub(suffix.len()) else {
            return false;
        };
        name[split..].eq_ignore_ascii_case(suffix) && (split == 0 || name[split - 1] == b'.')
    }
}

/// Maps keyed by `DomainName` can be probed with a borrowed `&str`: the
/// derived `Hash`, `Eq` and `Ord` of the one-field newtype are the
/// inner `String`'s, which agree with `str`'s.
impl Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for DomainName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<DomainName, NameError> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn parse_normalises() {
        assert_eq!(n("Example.COM").as_str(), "example.com");
        assert_eq!(n("example.com.").as_str(), "example.com");
        assert_eq!(n("a-b.c_d.example").as_str(), "a-b.c_d.example");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse(".").is_err());
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse("-a.example").is_err());
        assert!(DomainName::parse("a-.example").is_err());
        assert!(DomainName::parse("exa mple.com").is_err());
        assert!(DomainName::parse("exämple.com").is_err());
        assert!(DomainName::parse(&"a".repeat(64)).is_err());
        assert!(DomainName::parse(&format!("{}.com", "a.".repeat(130))).is_err());
    }

    #[test]
    fn www_pairing() {
        let bare = n("example.com");
        let www = bare.with_www();
        assert_eq!(www.as_str(), "www.example.com");
        assert!(www.is_www());
        assert!(!bare.is_www());
        assert_eq!(www.without_www(), bare);
        assert_eq!(bare.without_www(), bare);
        assert_eq!(www.with_www(), www); // idempotent
    }

    #[test]
    fn www_alone_is_not_stripped_to_empty() {
        let www = n("www");
        assert!(www.is_www());
        assert_eq!(www.without_www().as_str(), "www");
    }

    #[test]
    fn labels_and_parent() {
        let d = n("a.b.example.com");
        assert_eq!(d.label_count(), 4);
        assert_eq!(
            d.labels().collect::<Vec<_>>(),
            vec!["a", "b", "example", "com"]
        );
        assert_eq!(d.parent().unwrap().as_str(), "b.example.com");
        assert_eq!(n("com").parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let base = n("example.com");
        assert!(n("example.com").is_subdomain_of(&base));
        assert!(n("www.example.com").is_subdomain_of(&base));
        assert!(n("a.b.example.com").is_subdomain_of(&base));
        assert!(!n("badexample.com").is_subdomain_of(&base));
        assert!(!n("example.org").is_subdomain_of(&base));
        assert!(!n("com").is_subdomain_of(&base));
    }

    #[test]
    fn suffix_matching_respects_label_boundaries() {
        let d = n("a495.g.akamai.net");
        assert!(d.has_suffix("akamai.net"));
        assert!(d.has_suffix("g.akamai.net"));
        assert!(!d.has_suffix("kamai.net"));
        assert!(n("akamai.net").has_suffix("akamai.net"));
        assert!(!n("net").has_suffix("akamai.net"));
    }

    /// The lowercasing, `String`-building matcher `has_suffix` replaced.
    fn has_suffix_by_lowercasing(name: &DomainName, suffix: &str) -> bool {
        let suffix = suffix.to_ascii_lowercase();
        name.0 == suffix
            || (name.0.ends_with(&suffix)
                && name
                    .0
                    .as_bytes()
                    .get(name.0.len() - suffix.len() - 1)
                    .is_some_and(|b| *b == b'.'))
    }

    #[test]
    fn suffix_matching_answers_as_the_lowercasing_matcher_did() {
        let cases = [
            ("a495.g.akamai-sim.net", "AKAMAI-SIM.NET", true),
            ("a495.g.akamai-sim.net", "G.Akamai-Sim.net", true),
            ("akamai-sim.net", "akamai-sim.net", true),
            ("akamai-sim.net", "Akamai-Sim.Net", true),
            ("notakamai-sim.net", "akamai-sim.net", false),
            ("net", "akamai-sim.net", false),
            ("sim.net", "akamai-sim.net", false),
            ("akamai-sim.net", "", false),
            ("a495.g.akamai-sim.net", ".akamai-sim.net", false),
        ];
        for (name, suffix, expected) in cases {
            let name = n(name);
            assert_eq!(name.has_suffix(suffix), expected, "{name} ~ {suffix:?}");
            assert_eq!(
                name.has_suffix(suffix),
                has_suffix_by_lowercasing(&name, suffix),
                "{name} ~ {suffix:?}"
            );
        }
    }

    #[test]
    fn maps_probe_by_str() {
        let mut m = std::collections::HashMap::new();
        m.insert(n("Edge.CDN.example"), 1);
        assert_eq!(m.get("edge.cdn.example"), Some(&1));
        assert_eq!(m.get("cdn.example"), None);
    }

    #[test]
    fn ordering_is_stable_for_maps() {
        let mut v = vec![n("b.com"), n("a.com"), n("a.com")];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].as_str(), "a.com");
    }
}
