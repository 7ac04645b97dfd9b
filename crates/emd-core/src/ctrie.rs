//! The CandidatePrefixTrie (CTrie): a case-insensitive, token-level prefix
//! trie forest indexing the seed entity candidates discovered by Local EMD.
//!
//! Nodes correspond to lower-cased tokens; candidates sharing a prefix live
//! in the same subtree. The trie supports the incremental traversal the
//! candidate-mention-extraction scan (§V-A) needs: `child_sym(node, sym)`
//! and `is_terminal(node)`.
//!
//! Since the SoA-layout PR, edges are labelled with interned
//! [`Sym`]s from the pipeline's shared [`Interner`] rather than owned
//! `String`s: the scan walks the trie with integer compares against
//! symbols the ingest step already produced, so the per-token
//! `to_lowercase()` allocation the old scan paid is gone entirely. The
//! string-facing entry points (`insert`/`remove`/`contains`/`child`) take
//! the interner and fold through it with `str::to_lowercase()` semantics,
//! exactly as before.

use emd_text::intern::{Interner, Sym};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::HashMap;

/// Node id inside the trie arena. The root is [`CTrie::ROOT`].
pub type NodeId = u32;

#[derive(Debug, Clone, Default)]
struct Node {
    children: HashMap<Sym, NodeId>,
    /// True when the path from the root to this node spells a registered
    /// candidate.
    terminal: bool,
}

/// Case-insensitive token-level prefix trie forest.
///
/// Supports removal: pruning a low-frequency cold candidate unmarks its
/// terminal and frees any now-childless path nodes onto a free-list that
/// later insertions reuse, so a long-running stream's trie arena tracks the
/// *live* candidate set instead of growing monotonically.
///
/// A checkpoint carries the registered phrases only, as symbol lists in
/// sorted order; load rebuilds the arena by inserting them.
#[derive(Debug, Clone)]
pub struct CTrie {
    nodes: Vec<Node>,
    n_candidates: usize,
    /// Arena slots freed by [`CTrie::remove`], reused by later inserts.
    free: Vec<NodeId>,
}

impl Default for CTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl CTrie {
    /// Root node id.
    pub const ROOT: NodeId = 0;

    /// Empty trie.
    pub fn new() -> CTrie {
        CTrie {
            nodes: vec![Node::default()],
            n_candidates: 0,
            free: Vec::new(),
        }
    }

    /// Insert a candidate given its tokens (any casing), interning each
    /// folded token. Returns `true` if the candidate was new.
    pub fn insert<S: AsRef<str>>(&mut self, interner: &mut Interner, tokens: &[S]) -> bool {
        self.insert_path(tokens.iter().map(|t| interner.intern_folded(t.as_ref())))
    }

    /// Insert a candidate given its already-folded symbols. Returns `true`
    /// if the candidate was new.
    pub fn insert_syms(&mut self, syms: &[Sym]) -> bool {
        self.insert_path(syms.iter().copied())
    }

    /// Walk (creating) the path of `syms` and mark its end terminal. An
    /// empty path ends at the root, which is never a candidate.
    fn insert_path(&mut self, syms: impl Iterator<Item = Sym>) -> bool {
        let mut node = Self::ROOT;
        for key in syms {
            node = self.child_or_insert(node, key);
        }
        let n = &mut self.nodes[node as usize];
        if node == Self::ROOT || n.terminal {
            return false;
        }
        n.terminal = true;
        self.n_candidates += 1;
        true
    }

    /// Follow the edge `key` from `node`, creating it (reusing a freed
    /// arena slot when one exists) if absent.
    fn child_or_insert(&mut self, node: NodeId, key: Sym) -> NodeId {
        match self.nodes[node as usize].children.get(&key) {
            Some(&id) => id,
            None => {
                // Reuse a slot freed by `remove` before growing the arena
                // (freed nodes are reset to default on removal).
                let id = match self.free.pop() {
                    Some(id) => id,
                    None => {
                        let id = self.nodes.len() as NodeId;
                        self.nodes.push(Node::default());
                        id
                    }
                };
                self.nodes[node as usize].children.insert(key, id);
                id
            }
        }
    }

    /// Remove a registered candidate. Unmarks the terminal and frees every
    /// now-childless, non-terminal node on the path (bottom-up) onto the
    /// free-list. Returns `true` when the candidate was present. Paths
    /// shared with other candidates (prefixes or extensions) are left
    /// intact.
    pub fn remove<S: AsRef<str>>(&mut self, interner: &Interner, tokens: &[S]) -> bool {
        if tokens.is_empty() {
            return false;
        }
        // A token the interner has never seen cannot label any edge.
        let mut syms = Vec::with_capacity(tokens.len());
        for t in tokens {
            match interner.lookup_folded(t.as_ref()) {
                Some(s) => syms.push(s),
                None => return false,
            }
        }
        self.remove_syms(&syms)
    }

    /// [`CTrie::remove`] by already-folded symbols.
    pub fn remove_syms(&mut self, syms: &[Sym]) -> bool {
        if syms.is_empty() {
            return false;
        }
        // Walk down, recording (parent, key, child) per step.
        let mut path: Vec<(NodeId, Sym, NodeId)> = Vec::with_capacity(syms.len());
        let mut node = Self::ROOT;
        for &key in syms {
            match self.nodes[node as usize].children.get(&key) {
                Some(&id) => {
                    path.push((node, key, id));
                    node = id;
                }
                None => return false,
            }
        }
        if !self.nodes[node as usize].terminal {
            return false;
        }
        self.nodes[node as usize].terminal = false;
        self.n_candidates -= 1;
        // Prune childless non-terminal nodes bottom-up; stop at the first
        // node still needed (terminal, or carrying other candidates below).
        for (parent, key, child) in path.into_iter().rev() {
            let n = &self.nodes[child as usize];
            if n.terminal || !n.children.is_empty() {
                break;
            }
            self.nodes[parent as usize].children.remove(&key);
            self.nodes[child as usize] = Node::default();
            self.free.push(child);
        }
        true
    }

    /// Follow the edge labelled `sym` — the allocation-free hot-path step
    /// the occurrence scan uses (sentence tokens are interned at ingest).
    #[inline]
    pub fn child_sym(&self, node: NodeId, sym: Sym) -> Option<NodeId> {
        self.nodes[node as usize].children.get(&sym).copied()
    }

    /// Follow the edge labelled with the lower-cased form of `token`.
    ///
    /// Folding goes through [`Interner::lookup_folded`], which preserves
    /// the historical `str::to_lowercase()` key scheme: some non-ASCII
    /// characters (e.g. "ß") do not fold to the same key as their
    /// uppercase spelling ("SS" → "ss"), and the interner keeps them
    /// distinct just as the old String-keyed edges did.
    pub fn child(&self, interner: &Interner, node: NodeId, token: &str) -> Option<NodeId> {
        let sym = interner.lookup_folded(token)?;
        self.child_sym(node, sym)
    }

    /// Does the path ending at `node` spell a candidate?
    pub fn is_terminal(&self, node: NodeId) -> bool {
        self.nodes[node as usize].terminal
    }

    /// Is the full token sequence a registered candidate?
    pub fn contains<S: AsRef<str>>(&self, interner: &Interner, tokens: &[S]) -> bool {
        let mut node = Self::ROOT;
        for t in tokens {
            match self.child(interner, node, t.as_ref()) {
                Some(n) => node = n,
                None => return false,
            }
        }
        node != Self::ROOT && self.is_terminal(node)
    }

    /// Number of registered candidates.
    pub fn len(&self) -> usize {
        self.n_candidates
    }

    /// True when no candidates are registered.
    pub fn is_empty(&self) -> bool {
        self.n_candidates == 0
    }

    /// Number of live trie nodes (diagnostics / memory accounting; freed
    /// slots awaiting reuse are not counted).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Enumerate all candidates as lower-cased token vectors, in
    /// ascending symbol order (test & diagnostics helper; not on the hot
    /// path).
    pub fn candidates(&self, interner: &Interner) -> Vec<Vec<String>> {
        self.phrases()
            .iter()
            .map(|p| p.iter().map(|&s| interner.resolve(s).to_string()).collect())
            .collect()
    }

    /// Every registered phrase as its symbol list, in ascending
    /// lexicographic symbol order — the trie's contents, independent of
    /// arena layout and hash order.
    fn phrases(&self) -> Vec<Vec<Sym>> {
        let mut out = Vec::with_capacity(self.n_candidates);
        let mut path = Vec::new();
        self.collect_phrases(Self::ROOT, &mut path, &mut out);
        out
    }

    fn collect_phrases(&self, node: NodeId, path: &mut Vec<Sym>, out: &mut Vec<Vec<Sym>>) {
        let n = &self.nodes[node as usize];
        if n.terminal {
            out.push(path.clone());
        }
        let mut children: Vec<(Sym, NodeId)> = n.children.iter().map(|(&s, &c)| (s, c)).collect();
        children.sort_unstable();
        for (sym, child) in children {
            path.push(sym);
            self.collect_phrases(child, path, out);
            path.pop();
        }
    }
}

impl Serialize for CTrie {
    fn to_value(&self) -> Value {
        self.phrases().to_value()
    }
}

impl Deserialize for CTrie {
    fn from_value(v: &Value) -> Result<CTrie, DeError> {
        let mut trie = CTrie::new();
        for phrase in Vec::<Vec<Sym>>::from_value(v)? {
            if !trie.insert_syms(&phrase) {
                return Err(DeError::msg(format!(
                    "empty or repeated trie phrase {phrase:?}"
                )));
            }
        }
        Ok(trie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_case_insensitive() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        assert!(t.insert(&mut it, &["Andy", "Beshear"]));
        assert!(t.contains(&it, &["andy", "beshear"]));
        assert!(t.contains(&it, &["ANDY", "BESHEAR"]));
        assert!(!t.contains(&it, &["andy"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_returns_false() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        assert!(t.insert(&mut it, &["covid"]));
        assert!(!t.insert(&mut it, &["COVID"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prefix_is_not_candidate_unless_inserted() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["world", "health", "organization"]);
        assert!(!t.contains(&it, &["world"]));
        assert!(!t.contains(&it, &["world", "health"]));
        t.insert(&mut it, &["world", "health"]);
        assert!(t.contains(&it, &["world", "health"]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["andy", "beshear"]);
        t.insert(&mut it, &["andy", "murray"]);
        // root + andy + beshear + murray = 4 nodes
        assert_eq!(t.n_nodes(), 4);
    }

    #[test]
    fn traversal_api() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["new", "york", "city"]);
        let n1 = t.child(&it, CTrie::ROOT, "New").unwrap();
        assert!(!t.is_terminal(n1));
        let n2 = t.child(&it, n1, "YORK").unwrap();
        let n3 = t.child(&it, n2, "city").unwrap();
        assert!(t.is_terminal(n3));
        assert!(t.child(&it, n1, "jersey").is_none());
        // Symbol-level traversal agrees with the string-level one.
        let york = it.lookup_folded("york").unwrap();
        assert_eq!(t.child_sym(n1, york), Some(n2));
    }

    #[test]
    fn child_fast_path_matches_slow_path() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["straße", "café"]);
        t.insert(&mut it, &["covid"]);
        // Lowercase ASCII (fast path), mixed-case ASCII and non-ASCII
        // (slow path) must agree on every edge.
        assert!(t.child(&it, CTrie::ROOT, "covid").is_some());
        assert!(t.child(&it, CTrie::ROOT, "COVID").is_some());
        assert!(t.child(&it, CTrie::ROOT, "CoViD").is_some());
        let n = t.child(&it, CTrie::ROOT, "STRASSE");
        // "STRASSE".to_lowercase() is "strasse", a different key than
        // "straße" — both paths must agree that it misses.
        assert!(n.is_none());
        let n = t.child(&it, CTrie::ROOT, "straße").unwrap();
        assert!(t.child(&it, n, "CAFÉ").is_some());
        assert!(t.child(&it, n, "café").is_some());
        assert!(t.child(&it, CTrie::ROOT, "missing").is_none());
    }

    #[test]
    fn empty_insert_rejected() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        assert!(!t.insert::<&str>(&mut it, &[]));
        assert!(!t.insert_syms(&[]));
        assert!(t.is_empty());
    }

    #[test]
    fn remove_prunes_exclusive_path() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["world", "health", "organization"]);
        assert_eq!(t.n_nodes(), 4);
        assert!(t.remove(&it, &["World", "Health", "Organization"]));
        assert!(!t.contains(&it, &["world", "health", "organization"]));
        assert_eq!(t.len(), 0);
        assert_eq!(t.n_nodes(), 1, "exclusive path fully pruned");
        // Removing again is a no-op, as is removing unknown vocabulary.
        assert!(!t.remove(&it, &["world", "health", "organization"]));
        assert!(!t.remove(&it, &["never", "interned"]));
    }

    #[test]
    fn remove_keeps_shared_prefixes_and_extensions() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["andy", "beshear"]);
        t.insert(&mut it, &["andy", "murray"]);
        t.insert(&mut it, &["andy"]);
        assert!(t.remove(&it, &["andy", "beshear"]));
        assert!(t.contains(&it, &["andy", "murray"]));
        assert!(t.contains(&it, &["andy"]));
        assert_eq!(t.len(), 2);
        // Removing a terminal that still has children keeps the node.
        assert!(t.remove(&it, &["andy"]));
        assert!(t.contains(&it, &["andy", "murray"]));
        assert!(!t.contains(&it, &["andy"]));
        // A prefix that was never inserted cannot be removed.
        assert!(!t.remove(&it, &["andy"]));
    }

    #[test]
    fn freed_nodes_are_reused_by_insert() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["alpha", "beta"]);
        let peak = t.n_nodes();
        t.remove(&it, &["alpha", "beta"]);
        assert_eq!(t.n_nodes(), 1);
        t.insert(&mut it, &["gamma", "delta"]);
        assert_eq!(
            t.n_nodes(),
            peak,
            "arena reuses freed slots instead of growing"
        );
        assert!(t.contains(&it, &["gamma", "delta"]));
    }

    #[test]
    fn sym_level_insert_matches_string_level() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        let syms = vec![it.intern_folded("New"), it.intern_folded("York")];
        assert!(t.insert_syms(&syms));
        assert!(t.contains(&it, &["new", "york"]));
        assert!(!t.insert(&mut it, &["NEW", "YORK"]), "same candidate");
        assert!(t.remove_syms(&syms));
        assert!(t.is_empty());
    }

    #[test]
    fn serializes_sorted_phrases_and_rebuilds_the_arena() {
        let mut it = Interner::new();
        let mut a = CTrie::new();
        for p in [
            &["zeta"][..],
            &["andy", "murray"],
            &["andy"],
            &["world", "cup"],
        ] {
            a.insert(&mut it, p);
        }
        a.remove(&it, &["world", "cup"]);
        // Same phrases, other insertion order, no freed slots.
        let mut b = CTrie::new();
        for p in [&["andy"][..], &["zeta"], &["andy", "murray"]] {
            b.insert(&mut it, p);
        }
        assert_eq!(a.to_value(), b.to_value(), "contents, not arena layout");
        let back = CTrie::from_value(&a.to_value()).unwrap();
        assert_eq!(back.candidates(&it), a.candidates(&it));
        assert_eq!((back.len(), back.n_nodes()), (a.len(), a.n_nodes()));
        assert!(back.contains(&it, &["andy", "murray"]));
        let dup = serde::value::Value::Arr(vec![vec![0u32].to_value(), vec![0u32].to_value()]);
        assert!(CTrie::from_value(&dup).is_err(), "a repeated phrase");
    }

    #[test]
    fn enumerate_candidates() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["Italy"]);
        t.insert(&mut it, &["Andy", "Beshear"]);
        let mut cands = t.candidates(&it);
        cands.sort();
        assert_eq!(
            cands,
            vec![
                vec!["andy".to_string(), "beshear".to_string()],
                vec!["italy".to_string()]
            ]
        );
    }
}
