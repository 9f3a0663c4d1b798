//! Reference answers computed without the engine under test.

use std::collections::{BTreeSet, HashMap};

/// Mappings of `.*!num{[0-9]+}.*` on `bytes`: every non-empty digit
/// substring is one span, so a maximal run of `L` digits contributes
/// `L(L+1)/2`.
pub fn digit_run_count(bytes: &[u8]) -> u64 {
    let mut total = 0u64;
    let mut run = 0u64;
    for &b in bytes {
        if b.is_ascii_digit() {
            run += 1;
        } else {
            total += run * (run + 1) / 2;
            run = 0;
        }
    }
    total + run * (run + 1) / 2
}

/// Per-tenant keyword hits of the token-anchored dictionary spanners: a
/// tenant's mapping count on a space-separated document is the number of
/// tokens equal to one of its keywords.
#[derive(Debug)]
pub struct TokenOracle {
    /// Keyword → tenants whose dictionary holds it.
    owners: HashMap<Vec<u8>, Vec<usize>>,
    tenants: usize,
}

impl TokenOracle {
    /// Builds the oracle from each tenant's keyword list.
    pub fn new(dictionaries: &[Vec<String>]) -> TokenOracle {
        let mut owners: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        for (t, words) in dictionaries.iter().enumerate() {
            let distinct: BTreeSet<&String> = words.iter().collect();
            for w in distinct {
                owners.entry(w.as_bytes().to_vec()).or_default().push(t);
            }
        }
        TokenOracle { owners, tenants: dictionaries.len() }
    }

    /// Expected mapping count of every tenant on `bytes`.
    pub fn counts(&self, bytes: &[u8]) -> Vec<u32> {
        let mut out = vec![0u32; self.tenants];
        for token in bytes.split(|&b| b == b' ') {
            if let Some(ts) = self.owners.get(token) {
                for &t in ts {
                    out[t] += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_runs_follow_the_closed_form() {
        assert_eq!(digit_run_count(b""), 0);
        assert_eq!(digit_run_count(b"abc"), 0);
        assert_eq!(digit_run_count(b"7"), 1);
        assert_eq!(digit_run_count(b"a12b345"), 3 + 6);
        assert_eq!(digit_run_count(b"0000"), 10);
    }

    #[test]
    fn tokens_count_whole_words_per_tenant() {
        let oracle = TokenOracle::new(&[
            vec!["abcd".into(), "abcd".into()],
            vec!["abcd".into(), "wxyz".into()],
        ]);
        assert_eq!(oracle.counts(b"abcd wxyz abcde abcd"), vec![2, 3]);
        assert_eq!(oracle.counts(b""), vec![0, 0]);
    }
}
