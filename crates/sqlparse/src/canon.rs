//! Canonicalization of queries for equivalence checking.
//!
//! The evaluation harness marks a translated query as correct only when it is
//! equivalent to the gold SQL (Section VII-A.5).  Since NLIDBs are free to
//! pick different alias names, list FROM relations in a different order, or
//! reorder conjuncts, we compare queries after canonicalization:
//!
//! 1. every alias is rewritten to a deterministic name derived from its
//!    relation (`publication` -> `publication_1`, a second instance of the
//!    same relation -> `publication_2`, ...), with instance numbers assigned
//!    by the relation's first appearance over a *canonical ordering* of the
//!    query's structure rather than the textual FROM order,
//! 2. identifiers are lower-cased,
//! 3. the FROM list, WHERE conjunction, GROUP BY list and SELECT list are
//!    sorted by their canonical rendering,
//! 4. symmetric predicates (`a = b`) order their operands lexicographically.
//!
//! Two queries are considered equivalent when their canonical forms are
//! structurally equal.  This is a conservative approximation of semantic
//! equivalence: it never equates two queries with different meanings, and it
//! handles every alias / ordering variation the NLIDBs in this repository can
//! produce.  Self-joins are the only subtle case: instance numbering is made
//! deterministic by ordering relation instances by the multiset of
//! non-join predicates that mention them.
//!
//! [`fingerprint`] hashes the canonical form without building it: each
//! clause hashes as the wrapping sum of its items' hashes (an order-free
//! multiset hash), and a qualifier hashes as the relation it names.  Two
//! queries whose canonical renderings are equal get equal fingerprints
//! (unless one has none, for text that could spell SQL syntax), so a caller
//! deduplicating queries canonicalizes only those whose fingerprints match.

use crate::ast::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// Produce the canonical form of a query.
pub fn canonicalize(query: &Query) -> Query {
    let mut q = query.clone();
    lowercase_query(&mut q);
    let (aliases, rename) = alias_renaming(&q);
    for (t, alias) in q.from.iter_mut().zip(aliases) {
        t.alias = Some(alias);
    }
    rename_columns(&mut q, &rename);
    qualify_unqualified_columns(&mut q);
    order_symmetric_predicates(&mut q);
    sort_clauses(&mut q);
    q
}

/// True when two queries are equivalent modulo aliases and clause ordering.
pub fn equivalent(a: &Query, b: &Query) -> bool {
    canonicalize(a) == canonicalize(b)
}

/// Lower-case an identifier in place; one that is already lower-case ASCII
/// is left as it is.
fn lowercase_ident(s: &mut String) {
    if s.bytes().any(|b| !b.is_ascii() || b.is_ascii_uppercase()) {
        *s = s.to_lowercase();
    }
}

fn lowercase_column(c: &mut ColumnRef) {
    lowercase_ident(&mut c.column);
    if let Some(q) = &mut c.qualifier {
        lowercase_ident(q);
    }
}

fn lowercase_expr(e: &mut Expr) {
    match e {
        Expr::Column(c) => lowercase_column(c),
        Expr::Aggregate { arg, .. } => {
            if let Some(c) = arg {
                lowercase_column(c);
            }
        }
        Expr::Literal(_) => {}
    }
}

fn lowercase_predicate(p: &mut Predicate) {
    match p {
        Predicate::Compare { left, right, .. } => {
            lowercase_expr(left);
            lowercase_expr(right);
        }
        Predicate::In { col, .. }
        | Predicate::Between { col, .. }
        | Predicate::IsNull { col, .. } => lowercase_column(col),
    }
}

fn lowercase_query(q: &mut Query) {
    for t in &mut q.from {
        lowercase_ident(&mut t.table);
        if let Some(a) = &mut t.alias {
            lowercase_ident(a);
        }
    }
    for s in &mut q.select {
        if let SelectItem::Expr(e) = s {
            lowercase_expr(e);
        }
    }
    for p in &mut q.predicates {
        lowercase_predicate(p);
    }
    for c in &mut q.group_by {
        lowercase_column(c);
    }
    for p in &mut q.having {
        lowercase_predicate(p);
    }
    for o in &mut q.order_by {
        lowercase_expr(&mut o.expr);
    }
}

/// A stable signature of a relation instance: the sorted renderings of the
/// non-join predicates and select items that mention its binding.  Used to
/// disambiguate multiple instances of the same relation (self-joins).
fn instance_signature(q: &Query, binding: &str) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mentions = |col: &ColumnRef| {
        col.qualifier
            .as_deref()
            .map(|qu| qu.eq_ignore_ascii_case(binding))
            .unwrap_or(false)
    };
    for p in q.filter_predicates() {
        if p.columns().iter().any(|c| mentions(c)) {
            parts.push(strip_qualifiers_pred(p));
        }
    }
    for item in &q.select {
        if let SelectItem::Expr(e) = item {
            if e.column().map(mentions).unwrap_or(false) {
                parts.push(format!("select:{}", strip_qualifiers_expr(e)));
            }
        }
    }
    parts.sort();
    parts.join("|")
}

fn strip_qualifiers_expr(e: &Expr) -> String {
    let mut e = e.clone();
    match &mut e {
        Expr::Column(c) => c.qualifier = None,
        Expr::Aggregate { arg, .. } => {
            if let Some(c) = arg {
                c.qualifier = None;
            }
        }
        Expr::Literal(_) => {}
    }
    e.to_string()
}

fn strip_qualifiers_pred(p: &Predicate) -> String {
    let mut p = p.clone();
    match &mut p {
        Predicate::Compare { left, right, .. } => {
            if let Expr::Column(c) = left {
                c.qualifier = None;
            }
            if let Expr::Column(c) = right {
                c.qualifier = None;
            }
            if let Expr::Aggregate { arg: Some(c), .. } = left {
                c.qualifier = None;
            }
            if let Expr::Aggregate { arg: Some(c), .. } = right {
                c.qualifier = None;
            }
        }
        Predicate::In { col, .. }
        | Predicate::Between { col, .. }
        | Predicate::IsNull { col, .. } => col.qualifier = None,
    }
    p.to_string()
}

/// Refine per-binding signatures by propagating neighbour signatures along
/// join conditions (two rounds of Weisfeiler-Lehman-style colouring).  This
/// distinguishes intermediate relation instances in self-joins (e.g. the two
/// `writes` instances of Example 7) by the value predicates of the relations
/// they connect to.
fn refined_signatures(q: &Query) -> HashMap<String, String> {
    let mut sigs: HashMap<String, String> = q
        .from
        .iter()
        .map(|t| {
            (
                t.binding().to_string(),
                format!("{}#{}", t.table, instance_signature(q, t.binding())),
            )
        })
        .collect();
    // adjacency over join conditions
    let mut adj: HashMap<String, Vec<String>> = HashMap::new();
    for p in q.join_conditions() {
        let cols = p.columns();
        if cols.len() == 2 {
            if let (Some(a), Some(b)) = (cols[0].qualifier.clone(), cols[1].qualifier.clone()) {
                adj.entry(a.clone()).or_default().push(b.clone());
                adj.entry(b).or_default().push(a);
            }
        }
    }
    for _ in 0..2 {
        let mut next = HashMap::new();
        for (binding, sig) in &sigs {
            let mut neighbour_sigs: Vec<String> = adj
                .get(binding)
                .map(|ns| {
                    ns.iter()
                        .filter_map(|n| sigs.get(n).cloned())
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            neighbour_sigs.sort();
            next.insert(
                binding.clone(),
                format!("{sig}~[{}]", neighbour_sigs.join(";")),
            );
        }
        sigs = next;
    }
    sigs
}

/// The canonical alias of every FROM entry (`<relation>_<k>`, in FROM
/// order), and the renaming of qualifiers: a binding names the alias of the
/// first FROM entry that binds it (the rule of `Query::resolve_qualifier`),
/// and a relation name that binds nothing names its first instance.
fn alias_renaming(q: &Query) -> (Vec<String>, HashMap<String, String>) {
    // Group FROM entries by relation name.
    let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, t) in q.from.iter().enumerate() {
        groups.entry(&t.table).or_default().push(i);
    }
    // Signatures only order the instances of a repeated relation (a
    // self-join); without one, every alias is `<relation>_1`.
    let sigs = if groups.values().any(|group| group.len() > 1) {
        refined_signatures(q)
    } else {
        HashMap::new()
    };
    let mut aliases = vec![String::new(); q.from.len()];
    for (table, mut group) in groups {
        // Order instances by their refined signature (then by original
        // binding for full determinism) so that equivalent queries number
        // their self-join instances identically regardless of FROM order.
        group.sort_by_key(|&i| {
            let binding = q.from[i].binding();
            (sigs.get(binding).map_or("", String::as_str), binding)
        });
        for (k, &i) in group.iter().enumerate() {
            aliases[i] = format!("{table}_{}", k + 1);
        }
    }
    let mut rename = HashMap::new();
    for (t, alias) in q.from.iter().zip(&aliases) {
        rename
            .entry(t.binding().to_string())
            .or_insert_with(|| alias.clone());
    }
    // Unqualified references to the bare table name should also resolve.
    for t in &q.from {
        rename
            .entry(t.table.clone())
            .or_insert_with(|| format!("{}_1", t.table));
    }
    (aliases, rename)
}

fn rename_column(c: &mut ColumnRef, rename: &HashMap<String, String>) {
    if let Some(q) = &c.qualifier {
        if let Some(new) = rename.get(q) {
            c.qualifier = Some(new.clone());
        }
    }
}

fn rename_expr(e: &mut Expr, rename: &HashMap<String, String>) {
    match e {
        Expr::Column(c) => rename_column(c, rename),
        Expr::Aggregate { arg, .. } => {
            if let Some(c) = arg {
                rename_column(c, rename);
            }
        }
        Expr::Literal(_) => {}
    }
}

fn rename_predicate(p: &mut Predicate, rename: &HashMap<String, String>) {
    match p {
        Predicate::Compare { left, right, .. } => {
            rename_expr(left, rename);
            rename_expr(right, rename);
        }
        Predicate::In { col, .. }
        | Predicate::Between { col, .. }
        | Predicate::IsNull { col, .. } => rename_column(col, rename),
    }
}

fn rename_columns(q: &mut Query, rename: &HashMap<String, String>) {
    for s in &mut q.select {
        if let SelectItem::Expr(e) = s {
            rename_expr(e, rename);
        }
    }
    for p in &mut q.predicates {
        rename_predicate(p, rename);
    }
    for c in &mut q.group_by {
        rename_column(c, rename);
    }
    for p in &mut q.having {
        rename_predicate(p, rename);
    }
    for o in &mut q.order_by {
        rename_expr(&mut o.expr, rename);
    }
}

/// When the query reads from a single relation, unqualified column references
/// are unambiguous; qualify them with the relation's canonical binding so that
/// `SELECT title FROM publication` and `SELECT p.title FROM publication p`
/// canonicalize identically.
fn qualify_unqualified_columns(q: &mut Query) {
    if q.from.len() != 1 {
        return;
    }
    let binding = q.from[0].binding().to_string();
    let fix = |c: &mut ColumnRef| {
        if c.qualifier.is_none() {
            c.qualifier = Some(binding.clone());
        }
    };
    let fix_expr = |e: &mut Expr| match e {
        Expr::Column(c) if c.qualifier.is_none() => {
            c.qualifier = Some(binding.clone());
        }
        Expr::Aggregate { arg: Some(c), .. } if c.qualifier.is_none() => {
            c.qualifier = Some(binding.clone());
        }
        _ => {}
    };
    for s in &mut q.select {
        if let SelectItem::Expr(e) = s {
            fix_expr(e);
        }
    }
    for p in &mut q.predicates {
        match p {
            Predicate::Compare { left, right, .. } => {
                fix_expr(left);
                fix_expr(right);
            }
            Predicate::In { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::IsNull { col, .. } => fix(col),
        }
    }
    for c in &mut q.group_by {
        fix(c);
    }
    for p in &mut q.having {
        match p {
            Predicate::Compare { left, right, .. } => {
                fix_expr(left);
                fix_expr(right);
            }
            Predicate::In { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::IsNull { col, .. } => fix(col),
        }
    }
    for o in &mut q.order_by {
        fix_expr(&mut o.expr);
    }
}

/// For symmetric operators (`=`, `!=`) over two columns, order the operands
/// lexicographically so `a.x = b.y` and `b.y = a.x` canonicalize identically.
fn order_symmetric_predicates(q: &mut Query) {
    for p in &mut q.predicates {
        if let Predicate::Compare { left, op, right } = p {
            if matches!(op, BinOp::Eq | BinOp::NotEq) {
                let reversed = matches!(
                    (&*left, &*right),
                    (Expr::Column(a), Expr::Column(b)) if b.to_string() < a.to_string()
                );
                if reversed {
                    std::mem::swap(left, right);
                }
            }
        }
    }
}

/// Sort each clause by its rendering, rendered once per item.
fn sort_clauses(q: &mut Query) {
    q.from.sort_by_cached_key(|t| t.to_string());
    q.predicates.sort_by_cached_key(|p| p.to_string());
    q.group_by.sort_by_cached_key(|c| c.to_string());
    q.having.sort_by_cached_key(|p| p.to_string());
    q.select.sort_by_cached_key(|s| s.to_string());
    // ORDER BY is semantically ordered; leave it alone.
}

/// A hash of the canonical form, computed without building it.
///
/// Two queries whose canonical renderings are equal get equal fingerprints
/// (or at least one of them gets none, see below).  The converse does not
/// hold: the fingerprint may equate queries whose canonical forms differ, so
/// a caller compares canonical renderings when fingerprints match.
///
/// Each clause that `canonicalize` sorts hashes as the wrapping sum of its
/// items' hashes; `=` and `!=` between two columns combine their operands
/// order-free; identifiers hash lower-cased as `canonicalize` lower-cases
/// them; a literal hashes its `Display` bytes.  A qualifier hashes as the
/// relation it names, resolved as `canonicalize` renames it (the first FROM
/// entry that binds it, else the first entry of that relation), which
/// ignores alias names and self-join instance numbers.  A qualifier that
/// names no entry is kept as written by `canonicalize`, where it may spell
/// the canonical alias `<relation>_<k>` of an entry; it hashes as its text
/// without a `_<digits>` suffix, the relation of any such alias.
///
/// `None` when the canonical rendering may not determine the canonical
/// form: an identifier that is not a plain word (ASCII letters, digits and
/// `_`, not starting with a digit), a string literal holding a `'` or a
/// number that is not finite can spell other syntax, so the query must be
/// compared with every other by rendering.
pub fn fingerprint(query: &Query) -> Option<u64> {
    let mut fp = Fingerprinter {
        from: &query.from,
        relations: Vec::with_capacity(query.from.len()),
        plain: true,
    };
    for t in &query.from {
        let relation = fp.relation(&t.table, false);
        fp.relations.push(relation);
    }
    let mut h = Fnv::new(b'Q');
    h.byte(u8::from(query.distinct));
    h.word(sum(fp.relations.iter().copied()));
    h.word(sum(query.select.iter().map(|s| fp.select_item(s))));
    h.word(sum(query.predicates.iter().map(|p| fp.predicate(p))));
    h.word(sum(query.group_by.iter().map(|c| fp.column(c))));
    h.word(sum(query.having.iter().map(|p| fp.predicate(p))));
    for o in &query.order_by {
        h.word(fp.expr(&o.expr));
        h.byte(o.dir as u8);
    }
    h.end();
    if let Some(limit) = query.limit {
        h.word(limit);
    }
    fp.plain.then(|| h.finish())
}

/// The wrapping sum of item hashes: an order-free hash of their multiset.
fn sum(hashes: impl Iterator<Item = u64>) -> u64 {
    hashes.fold(0, u64::wrapping_add)
}

/// FNV-1a over bytes, finished with the SplitMix64 mixer so that sums of
/// finished hashes stay well spread.
struct Fnv(u64);

impl Fnv {
    /// A hash of one kind of item, named by `tag`.
    fn new(tag: u8) -> Self {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.byte(tag);
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// End a variable-length field; `0xff` occurs in no UTF-8 text.
    fn end(&mut self) {
        self.byte(0xff);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Hashes the items of one query, noting whether every identifier and
/// literal of its canonical rendering is plain.
struct Fingerprinter<'q> {
    from: &'q [TableRef],
    /// The hash of each FROM entry's relation name, in FROM order.
    relations: Vec<u64>,
    plain: bool,
}

impl Fingerprinter<'_> {
    /// Hash a relation name, or the relation of the canonical alias a
    /// qualifier spells when `strip_instance` is set.
    fn relation(&mut self, name: &str, strip_instance: bool) -> u64 {
        let mut h = Fnv::new(b'R');
        self.ident(&mut h, name, strip_instance);
        h.finish()
    }

    fn select_item(&mut self, item: &SelectItem) -> u64 {
        match item {
            SelectItem::Wildcard => Fnv::new(b'*').finish(),
            SelectItem::Expr(e) => self.expr(e),
        }
    }

    fn column(&mut self, c: &ColumnRef) -> u64 {
        let mut h = Fnv::new(b'C');
        self.column_into(&mut h, c);
        h.finish()
    }

    fn expr(&mut self, e: &Expr) -> u64 {
        let mut h = Fnv::new(b'E');
        match e {
            Expr::Column(c) => {
                h.byte(0);
                self.column_into(&mut h, c);
            }
            Expr::Aggregate {
                func,
                distinct,
                arg,
            } => {
                h.byte(1);
                h.bytes(func.name().as_bytes());
                h.byte(u8::from(*distinct));
                if let Some(c) = arg {
                    self.column_into(&mut h, c);
                }
            }
            Expr::Literal(l) => {
                h.byte(2);
                self.literal(&mut h, l);
            }
        }
        h.finish()
    }

    fn predicate(&mut self, p: &Predicate) -> u64 {
        let mut h = Fnv::new(b'P');
        match p {
            Predicate::Compare { left, op, right } => {
                let (mut l, mut r) = (self.expr(left), self.expr(right));
                // `canonicalize` orders the operands of `=` and `!=` between
                // two columns by their rendering.
                let symmetric = matches!(op, BinOp::Eq | BinOp::NotEq)
                    && matches!((left, right), (Expr::Column(_), Expr::Column(_)));
                if symmetric && r < l {
                    std::mem::swap(&mut l, &mut r);
                }
                h.byte(0);
                h.bytes(op.symbol().as_bytes());
                h.word(l);
                h.word(r);
            }
            Predicate::In {
                col,
                values,
                negated,
            } => {
                h.byte(1);
                self.column_into(&mut h, col);
                h.byte(u8::from(*negated));
                for v in values {
                    self.literal(&mut h, v);
                }
            }
            Predicate::Between { col, low, high } => {
                h.byte(2);
                self.column_into(&mut h, col);
                self.literal(&mut h, low);
                self.literal(&mut h, high);
            }
            Predicate::IsNull { col, negated } => {
                h.byte(3);
                self.column_into(&mut h, col);
                h.byte(u8::from(*negated));
            }
        }
        h.finish()
    }

    fn column_into(&mut self, h: &mut Fnv, c: &ColumnRef) {
        let relation = match c.qualifier.as_deref() {
            Some(q) => match resolve(self.from, q) {
                Some(i) => Some(self.relations[i]),
                None => Some(self.relation(q, true)),
            },
            // `canonicalize` qualifies the columns of a single-relation
            // query with its one instance.
            None => (self.relations.len() == 1).then(|| self.relations[0]),
        };
        match relation {
            Some(relation) => {
                h.byte(b'.');
                h.word(relation);
            }
            None => h.byte(b'-'),
        }
        self.ident(h, &c.column, false);
    }

    /// Hash an identifier lower-cased as `lowercase_ident` does, without its
    /// `_<digits>` suffix when `strip_instance` is set.
    fn ident(&mut self, h: &mut Fnv, s: &str, strip_instance: bool) {
        let lower = if s.is_ascii() {
            Cow::Borrowed(s)
        } else {
            Cow::Owned(s.to_lowercase())
        };
        self.plain &= is_plain_word(&lower);
        let text = if strip_instance {
            without_instance(&lower)
        } else {
            &lower
        };
        // Bytes of a lower-cased non-ASCII text are left as they are.
        for b in text.bytes() {
            h.byte(b.to_ascii_lowercase());
        }
        h.end();
    }

    fn literal(&mut self, h: &mut Fnv, l: &Literal) {
        self.plain &= match l {
            Literal::String(s) => !s.contains('\''),
            Literal::Number(n) => n.is_finite(),
            Literal::Null => true,
        };
        write!(h, "{l}").expect("hashing cannot fail");
        h.end();
    }
}

/// The FROM entry whose relation a qualifier names, as `canonicalize`
/// renames it: the first entry that binds it, else the first entry of that
/// relation.
fn resolve(from: &[TableRef], qualifier: &str) -> Option<usize> {
    from.iter()
        .position(|t| same_ident(t.binding(), qualifier))
        .or_else(|| from.iter().position(|t| same_ident(&t.table, qualifier)))
}

/// Identifier equality after lower-casing, without allocating for ASCII.
fn same_ident(a: &str, b: &str) -> bool {
    if a.is_ascii() && b.is_ascii() {
        a.eq_ignore_ascii_case(b)
    } else {
        a.to_lowercase() == b.to_lowercase()
    }
}

/// True for a word no other syntax renders as: ASCII letters, digits and
/// `_`, not starting with a digit.
fn is_plain_word(s: &str) -> bool {
    s.bytes()
        .next()
        .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// `s` without a trailing `_<digits>`: the relation of the canonical alias
/// `s` would be.
fn without_instance(s: &str) -> &str {
    match s.rfind('_') {
        Some(i) if i + 1 < s.len() && s[i + 1..].bytes().all(|b| b.is_ascii_digit()) => &s[..i],
        _ => s,
    }
}

/// The canonicalizer as it was before its fast paths (signatures built for
/// every query, every identifier lower-cased, operands cloned, clause keys
/// rendered in every comparison): the reference the fast paths are checked
/// against.
#[cfg(test)]
mod reference {
    use super::{qualify_unqualified_columns, refined_signatures, rename_columns};
    use crate::ast::*;
    use std::collections::HashMap;

    /// Produce the canonical form of a query.
    pub(super) fn canonicalize(query: &Query) -> Query {
        let mut q = query.clone();
        lowercase_query(&mut q);
        let rename = alias_renaming(&q);
        apply_renaming(&mut q, &rename);
        qualify_unqualified_columns(&mut q);
        order_symmetric_predicates(&mut q);
        sort_clauses(&mut q);
        q
    }

    fn apply_renaming(q: &mut Query, rename: &HashMap<String, String>) {
        for t in &mut q.from {
            let binding = t.binding().to_string();
            if let Some(new) = rename.get(&binding) {
                t.alias = Some(new.clone());
            }
        }
        rename_columns(q, rename);
    }

    fn lowercase_ident(s: &str) -> String {
        s.to_lowercase()
    }

    fn lowercase_column(c: &mut ColumnRef) {
        c.column = lowercase_ident(&c.column);
        if let Some(q) = &c.qualifier {
            c.qualifier = Some(lowercase_ident(q));
        }
    }

    fn lowercase_expr(e: &mut Expr) {
        match e {
            Expr::Column(c) => lowercase_column(c),
            Expr::Aggregate { arg, .. } => {
                if let Some(c) = arg {
                    lowercase_column(c);
                }
            }
            Expr::Literal(_) => {}
        }
    }

    fn lowercase_predicate(p: &mut Predicate) {
        match p {
            Predicate::Compare { left, right, .. } => {
                lowercase_expr(left);
                lowercase_expr(right);
            }
            Predicate::In { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::IsNull { col, .. } => lowercase_column(col),
        }
    }

    fn lowercase_query(q: &mut Query) {
        for t in &mut q.from {
            t.table = lowercase_ident(&t.table);
            if let Some(a) = &t.alias {
                t.alias = Some(lowercase_ident(a));
            }
        }
        for s in &mut q.select {
            if let SelectItem::Expr(e) = s {
                lowercase_expr(e);
            }
        }
        for p in &mut q.predicates {
            lowercase_predicate(p);
        }
        for c in &mut q.group_by {
            lowercase_column(c);
        }
        for p in &mut q.having {
            lowercase_predicate(p);
        }
        for o in &mut q.order_by {
            lowercase_expr(&mut o.expr);
        }
    }

    fn alias_renaming(q: &Query) -> HashMap<String, String> {
        let sigs = refined_signatures(q);
        let mut groups: HashMap<String, Vec<&TableRef>> = HashMap::new();
        for t in &q.from {
            groups.entry(t.table.clone()).or_default().push(t);
        }
        let mut rename = HashMap::new();
        for (table, mut refs) in groups {
            refs.sort_by_key(|t| {
                (
                    sigs.get(t.binding()).cloned().unwrap_or_default(),
                    t.binding().to_string(),
                )
            });
            for (i, t) in refs.iter().enumerate() {
                let canonical = if refs.len() == 1 {
                    format!("{table}_1")
                } else {
                    format!("{}_{}", table, i + 1)
                };
                rename.insert(t.binding().to_string(), canonical);
            }
            rename.entry(table.clone()).or_insert(format!("{table}_1"));
        }
        rename
    }

    fn order_symmetric_predicates(q: &mut Query) {
        for p in &mut q.predicates {
            if let Predicate::Compare { left, op, right } = p {
                if matches!(op, BinOp::Eq | BinOp::NotEq) {
                    if let (Expr::Column(a), Expr::Column(b)) = (&left.clone(), &right.clone()) {
                        if b.to_string() < a.to_string() {
                            std::mem::swap(left, right);
                        }
                    }
                }
            }
        }
    }

    fn sort_clauses(q: &mut Query) {
        q.from.sort_by_key(|t| t.to_string());
        q.predicates.sort_by_key(|p| p.to_string());
        q.group_by.sort_by_key(|c| c.to_string());
        q.having.sort_by_key(|p| p.to_string());
        q.select.sort_by_key(|s| s.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    fn canon_str(sql: &str) -> String {
        let q = parse_query(sql).unwrap();
        assert_eq!(canonicalize(&q), reference::canonicalize(&q), "{sql}");
        canonicalize(&q).to_string()
    }

    /// The SQL text of every gold query of the benchmarks and of every
    /// candidate `construct_query` builds for their cases (every
    /// configuration and join path Pipeline+ returns over the full log),
    /// built once per test binary.  The benchmark crates link their own copy
    /// of this crate, so the queries cross over as SQL text.
    fn benchmark_sql() -> &'static (Vec<String>, Vec<String>) {
        static SQL: OnceLock<(Vec<String>, Vec<String>)> = OnceLock::new();
        SQL.get_or_init(|| {
            use templar_core::{BagItem, MappedElement, Templar};
            let (mut gold, mut candidates) = (Vec::new(), Vec::new());
            for dataset in datasets::Dataset::all() {
                let templar =
                    Templar::new(dataset.db.clone(), &dataset.full_log(), Default::default())
                        .expect("benchmark Templar");
                let config = templar.config().clone();
                for case in &dataset.cases {
                    gold.push(case.gold_sql.to_string());
                    let (configurations, _) =
                        templar.map_keywords_with_stats(&case.nlq.keywords, &config);
                    for configuration in &configurations {
                        let bag: Vec<BagItem> = configuration
                            .mappings
                            .iter()
                            .map(|m| match &m.element {
                                MappedElement::Relation(r) => BagItem::Relation(r.clone()),
                                MappedElement::Attribute { attr, .. }
                                | MappedElement::Predicate { attr, .. } => {
                                    BagItem::Attribute(attr.clone())
                                }
                            })
                            .collect();
                        let Ok(inference) = templar.infer_joins_with(&bag, &config) else {
                            continue;
                        };
                        for scored in &inference.paths {
                            if let Some(q) =
                                nlidb::construct_query(configuration, &inference, &scored.path)
                            {
                                candidates.push(q.to_string());
                            }
                        }
                    }
                }
            }
            (gold, candidates)
        })
    }

    fn parse(sql: &str) -> Query {
        parse_query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"))
    }

    /// The fast paths against the reference on every gold query of the
    /// benchmarks and on every SQL candidate `construct_query` builds for
    /// their cases.
    #[test]
    fn oracle_matches_reference_on_benchmark_sql() {
        let (gold, candidates) = benchmark_sql();
        for sql in gold.iter().chain(candidates) {
            let q = parse(sql);
            assert_eq!(canonicalize(&q), reference::canonicalize(&q), "{sql}");
        }
        assert_eq!(gold.len(), 449);
        assert!(
            candidates.len() > 449,
            "only {} candidates",
            candidates.len()
        );
    }

    /// Every gold query and `construct_query` candidate of the benchmarks,
    /// grouped by canonical rendering: each group shares one fingerprint.
    /// Distinct canonical forms share one only where the fingerprint is
    /// coarser by design, which on this SQL means self-joins that differ in
    /// which instance a predicate names.
    #[test]
    fn fingerprint_oracle_on_benchmark_sql() {
        let (gold, candidates) = benchmark_sql();
        let mut by_rendering: HashMap<String, Option<u64>> = HashMap::new();
        for sql in gold.iter().chain(candidates) {
            let q = parse(sql);
            let fingerprint = fingerprint(&q);
            let group = by_rendering
                .entry(canonicalize(&q).to_string())
                .or_insert(fingerprint);
            assert_eq!(*group, fingerprint, "{sql}");
        }
        let mut forms_by_fingerprint: HashMap<u64, Vec<&str>> = HashMap::new();
        for (form, fingerprint) in &by_rendering {
            let fingerprint = fingerprint.expect("benchmark SQL is plain");
            forms_by_fingerprint
                .entry(fingerprint)
                .or_default()
                .push(form);
        }
        let mut shared = 0;
        for forms in forms_by_fingerprint
            .values()
            .filter(|forms| forms.len() > 1)
        {
            shared += forms.len();
            for form in forms {
                let mut relations = HashSet::new();
                let self_join = !parse(form)
                    .from
                    .into_iter()
                    .all(|t| relations.insert(t.table));
                assert!(self_join, "{forms:#?}");
            }
        }
        println!(
            "{} queries, {} canonical forms; {shared} of them, all self-joins, share a \
             fingerprint with another",
            gold.len() + candidates.len(),
            by_rendering.len(),
        );
    }

    /// Random queries whose FROM entries have distinct bindings.  Both
    /// canonicalizers map a binding that two entries share (invalid SQL)
    /// through a hash map in its iteration order, so such queries have no
    /// single canonical form to compare.
    fn distinct_binding_queries() -> impl Strategy<Value = Query> {
        crate::common::query_strategy().prop_filter("distinct bindings", |q| {
            let mut bindings = HashSet::new();
            q.from
                .iter()
                .all(|t| bindings.insert(t.binding().to_lowercase()))
        })
    }

    proptest! {
        /// The fast paths against the reference on random queries.
        #[test]
        fn oracle_matches_reference_on_random_queries(q in distinct_binding_queries()) {
            prop_assert_eq!(canonicalize(&q), reference::canonicalize(&q));
        }
    }

    /// A xorshift generator for the random rewrites below.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Apply `f` to every column reference of `q`.
    fn columns_mut(q: &mut Query, f: &mut impl FnMut(&mut ColumnRef)) {
        fn expr(e: &mut Expr, f: &mut impl FnMut(&mut ColumnRef)) {
            if let Expr::Column(c) | Expr::Aggregate { arg: Some(c), .. } = e {
                f(c);
            }
        }
        for s in &mut q.select {
            if let SelectItem::Expr(e) = s {
                expr(e, f);
            }
        }
        for p in q.predicates.iter_mut().chain(&mut q.having) {
            match p {
                Predicate::Compare { left, right, .. } => {
                    expr(left, f);
                    expr(right, f);
                }
                Predicate::In { col, .. }
                | Predicate::Between { col, .. }
                | Predicate::IsNull { col, .. } => f(col),
            }
        }
        q.group_by.iter_mut().for_each(&mut *f);
        for o in &mut q.order_by {
            expr(&mut o.expr, f);
        }
    }

    /// Random queries over three relation names and four aliases, so that
    /// self-joins, bindings shared by two entries and aliases that name a
    /// relation or spell a canonical alias are common.  Their qualifiers
    /// mostly name a FROM entry (by binding or by relation) or spell the
    /// canonical alias `<relation>_<k>` of one, and they have HAVING and
    /// ORDER BY clauses.
    fn bound_queries() -> impl Strategy<Value = Query> {
        let table = (0..3usize, proptest::option::of(0..4usize)).prop_map(|(t, a)| TableRef {
            table: ["a", "b", "Pub"][t].to_string(),
            alias: a.map(|a| ["x", "y", "b", "a_1"][a].to_string()),
        });
        (
            crate::common::query_strategy(),
            proptest::collection::vec(table, 1..5),
            any::<u64>(),
        )
            .prop_map(|(mut q, from, seed)| {
                let mut rng = Rng::new(seed);
                let mut names = Vec::new();
                for t in &from {
                    names.push(t.binding().to_string());
                    names.push(t.table.clone());
                    names.push(format!("{}_{}", t.table, 1 + rng.next() % 2));
                }
                q.from = from;
                columns_mut(&mut q, &mut |c| {
                    let pick = rng.next() as usize;
                    match pick % 4 {
                        0 => c.qualifier = None,
                        // The random qualifier, which names no entry.
                        1 => {}
                        _ => c.qualifier = Some(names[pick / 4 % names.len()].clone()),
                    }
                });
                let having = (rng.next() % 3) as usize;
                q.having = q.predicates.iter().take(having).cloned().collect();
                q.order_by = q
                    .select
                    .iter()
                    .filter_map(|s| match s {
                        SelectItem::Expr(e) => Some(OrderBy {
                            expr: e.clone(),
                            dir: if rng.next().is_multiple_of(2) {
                                OrderDir::Asc
                            } else {
                                OrderDir::Desc
                            },
                        }),
                        SelectItem::Wildcard => None,
                    })
                    .collect();
                q
            })
    }

    /// Give every aliased FROM entry a fresh alias, and the qualifiers that
    /// name it by binding the same one.
    fn rename_aliases(q: &mut Query, _: &mut Rng) {
        let from = q.from.clone();
        let fresh = |i: usize| format!("renamed_alias_{i}");
        columns_mut(q, &mut |c| {
            let named = c.qualifier.as_deref().and_then(|qualifier| {
                from.iter()
                    .position(|t| t.binding().eq_ignore_ascii_case(qualifier))
            });
            if let Some(i) = named.filter(|&i| from[i].alias.is_some()) {
                c.qualifier = Some(fresh(i));
            }
        });
        for (i, t) in q.from.iter_mut().enumerate() {
            if t.alias.is_some() {
                t.alias = Some(fresh(i));
            }
        }
    }

    /// Shuffle every clause `canonicalize` sorts.  FROM entries that share a
    /// binding keep their order, which decides the one a qualifier names.
    fn shuffle_clauses(q: &mut Query, rng: &mut Rng) {
        q.select.sort_by_cached_key(|_| rng.next());
        q.predicates.sort_by_cached_key(|_| rng.next());
        q.group_by.sort_by_cached_key(|_| rng.next());
        q.having.sort_by_cached_key(|_| rng.next());
        let mut order: Vec<usize> = (0..q.from.len()).collect();
        order.sort_by_cached_key(|_| rng.next());
        for t in &q.from {
            let sharing: Vec<usize> = (0..q.from.len())
                .filter(|&j| q.from[j].binding().eq_ignore_ascii_case(t.binding()))
                .collect();
            let slots: Vec<usize> = (0..order.len())
                .filter(|&slot| sharing.contains(&order[slot]))
                .collect();
            for (slot, j) in slots.into_iter().zip(sharing) {
                order[slot] = j;
            }
        }
        q.from = order.iter().map(|&i| q.from[i].clone()).collect();
    }

    fn swap_column_operands(q: &mut Query, _: &mut Rng) {
        for p in &mut q.predicates {
            if let Predicate::Compare {
                left: left @ Expr::Column(_),
                op: BinOp::Eq | BinOp::NotEq,
                right: right @ Expr::Column(_),
            } = p
            {
                std::mem::swap(left, right);
            }
        }
    }

    fn upper_case_identifiers(q: &mut Query, _: &mut Rng) {
        for t in &mut q.from {
            t.table.make_ascii_uppercase();
            if let Some(a) = &mut t.alias {
                a.make_ascii_uppercase();
            }
        }
        columns_mut(q, &mut |c| {
            c.column.make_ascii_uppercase();
            if let Some(qualifier) = &mut c.qualifier {
                qualifier.make_ascii_uppercase();
            }
        });
    }

    proptest! {
        /// A random query's fingerprint equals its canonical form's, and
        /// renaming aliases, shuffling every sorted clause, swapping the
        /// column operands of `=` and `!=` and upper-casing identifiers
        /// (never literals) leave it unchanged.
        #[test]
        fn fingerprint_oracle_on_random_queries(
            q in prop_oneof![crate::common::query_strategy(), bound_queries()],
            seed in any::<u64>(),
        ) {
            let expected = fingerprint(&q);
            prop_assert!(expected.is_some(), "random queries are plain: {}", q);
            prop_assert_eq!(fingerprint(&canonicalize(&q)), expected);
            let mut rng = Rng::new(seed);
            let rewrites: [fn(&mut Query, &mut Rng); 4] = [
                rename_aliases,
                shuffle_clauses,
                swap_column_operands,
                upper_case_identifiers,
            ];
            let mut all = q.clone();
            for rewrite in rewrites {
                let mut one = q.clone();
                rewrite(&mut one, &mut rng);
                prop_assert_eq!(fingerprint(&one), expected, "{}", one);
                rewrite(&mut all, &mut rng);
            }
            prop_assert_eq!(fingerprint(&all), expected, "{}", all);
        }
    }

    #[test]
    fn duplicate_bindings_canonicalize_one_way() {
        let q = parse_query("SELECT x.a FROM a x, b x WHERE x.c = 1").unwrap();
        let forms: HashSet<String> = (0..200).map(|_| canonicalize(&q).to_string()).collect();
        // `x` names the first FROM entry that binds it.
        assert_eq!(
            forms.into_iter().collect::<Vec<_>>(),
            ["SELECT a_1.a FROM a a_1, b b_1 WHERE a_1.c = 1"]
        );
    }

    fn fingerprint_of(sql: &str) -> Option<u64> {
        fingerprint(&parse_query(sql).unwrap())
    }

    #[test]
    fn fingerprints_ignore_what_canonicalization_ignores() {
        let pairs = [
            (
                "SELECT p.title FROM publication p WHERE p.year > 2000",
                "SELECT pub.title FROM publication pub WHERE pub.year > 2000",
            ),
            (
                "SELECT p.title FROM journal j, publication p \
                 WHERE j.name = 'TKDE' AND p.year > 1995 AND j.jid = p.jid",
                "SELECT p.title FROM publication p, journal j \
                 WHERE p.year > 1995 AND p.jid = j.jid AND j.name = 'TKDE'",
            ),
            (
                "SELECT title FROM publication WHERE year > 2000",
                "SELECT P.Title FROM Publication P WHERE P.Year > 2000",
            ),
            (
                "SELECT p.title FROM author a1, author a2, publication p, writes w1, writes w2 \
                 WHERE a1.name = 'John' AND a2.name = 'Jane' \
                 AND a1.aid = w1.aid AND a2.aid = w2.aid AND p.pid = w1.pid AND p.pid = w2.pid",
                "SELECT p.title FROM author x, author y, publication p, writes u, writes v \
                 WHERE y.name = 'John' AND x.name = 'Jane' \
                 AND y.aid = v.aid AND x.aid = u.aid AND p.pid = u.pid AND p.pid = v.pid",
            ),
            // `a_1` names no entry of the first query, so `canonicalize`
            // keeps it, and it spells the canonical alias of `x`.
            ("SELECT a_1.c FROM a x", "SELECT x.c FROM a x"),
            // The Kelvin sign lower-cases to an ASCII `k`.
            ("SELECT t.\u{212A} FROM t", "SELECT t.k FROM t"),
        ];
        for (a, b) in pairs {
            assert_eq!(canon_str(a), canon_str(b));
            assert!(fingerprint_of(a).is_some(), "{a}");
            assert_eq!(fingerprint_of(a), fingerprint_of(b), "{a}");
        }
    }

    #[test]
    fn fingerprints_separate_different_queries() {
        let queries = [
            "SELECT j.name FROM journal j",
            "SELECT p.title FROM publication p",
            "SELECT p.title FROM publication p WHERE p.year > 2000",
            "SELECT p.title FROM publication p WHERE p.year > 2001",
            "SELECT p.title FROM publication p WHERE p.year < 2000",
            "SELECT p.year FROM publication p WHERE p.title > 2000",
            "SELECT DISTINCT p.title FROM publication p WHERE p.year > 2000",
            "SELECT p.title FROM publication p WHERE p.year > 2000 LIMIT 5",
            "SELECT COUNT(p.title) FROM publication p",
            "SELECT p.title FROM publication p, journal j WHERE p.jid = j.jid",
            "SELECT p.title FROM publication p, journal j WHERE p.pid = j.jid",
        ];
        let fingerprints: HashSet<u64> = queries
            .iter()
            .map(|sql| fingerprint_of(sql).unwrap())
            .collect();
        assert_eq!(fingerprints.len(), queries.len());
    }

    #[test]
    fn text_that_can_spell_syntax_leaves_no_fingerprint() {
        // One literal that spells a second predicate renders like two.
        let two = parse_query("SELECT t.a FROM t WHERE t.b = 'x' AND t.c = 'y'").unwrap();
        let mut one = two.clone();
        one.predicates.truncate(1);
        one.predicates[0] = Predicate::Compare {
            left: Expr::Column(ColumnRef::qualified("t", "b")),
            op: BinOp::Eq,
            right: Expr::Literal(Literal::String("x' AND t_1.c = 'y".into())),
        };
        assert_eq!(
            canonicalize(&one).to_string(),
            canonicalize(&two).to_string()
        );
        assert!(fingerprint(&two).is_some());
        assert_eq!(fingerprint(&one), None);
        assert_eq!(fingerprint_of("SELECT t.straße FROM t"), None);
        assert_eq!(
            fingerprint_of("SELECT t.a FROM t WHERE t.b > 1").map(|_| ()),
            Some(())
        );
    }

    #[test]
    fn alias_names_do_not_matter() {
        let a = "SELECT p.title FROM publication p WHERE p.year > 2000";
        let b = "SELECT pub.title FROM publication pub WHERE pub.year > 2000";
        assert_eq!(canon_str(a), canon_str(b));
    }

    #[test]
    fn from_and_where_order_do_not_matter() {
        let a = "SELECT p.title FROM journal j, publication p \
                 WHERE j.name = 'TKDE' AND p.year > 1995 AND j.jid = p.jid";
        let b = "SELECT p.title FROM publication p, journal j \
                 WHERE p.year > 1995 AND p.jid = j.jid AND j.name = 'TKDE'";
        assert_eq!(canon_str(a), canon_str(b));
    }

    #[test]
    fn unqualified_and_qualified_single_table_queries_match() {
        let a = "SELECT title FROM publication WHERE year > 2000";
        let b = "SELECT p.title FROM publication p WHERE p.year > 2000";
        assert_eq!(canon_str(a), canon_str(b));
    }

    #[test]
    fn different_relations_do_not_match() {
        let a = "SELECT j.name FROM journal j";
        let b = "SELECT p.title FROM publication p";
        assert_ne!(canon_str(a), canon_str(b));
    }

    #[test]
    fn different_join_paths_do_not_match() {
        let a = "SELECT p.title FROM publication p, conference c, domain_conference dc, domain d \
                 WHERE d.name = 'Databases' AND p.cid = c.cid AND c.cid = dc.cid AND dc.did = d.did";
        let b = "SELECT p.title FROM publication p, publication_keyword pk, keyword k, domain_keyword dk, domain d \
                 WHERE d.name = 'Databases' AND p.pid = pk.pid AND k.kid = pk.kid AND dk.kid = k.kid AND dk.did = d.did";
        assert_ne!(canon_str(a), canon_str(b));
    }

    #[test]
    fn self_join_alias_swap_is_equivalent() {
        let a = "SELECT p.title FROM author a1, author a2, publication p, writes w1, writes w2 \
                 WHERE a1.name = 'John' AND a2.name = 'Jane' \
                 AND a1.aid = w1.aid AND a2.aid = w2.aid AND p.pid = w1.pid AND p.pid = w2.pid";
        let b = "SELECT p.title FROM author x, author y, publication p, writes u, writes v \
                 WHERE y.name = 'John' AND x.name = 'Jane' \
                 AND y.aid = u.aid AND x.aid = v.aid AND p.pid = u.pid AND p.pid = v.pid";
        // The two author instances are distinguished by their value
        // predicates ('John' vs 'Jane'), so renaming is stable under swapping.
        assert_eq!(canon_str(a), canon_str(b));
    }

    #[test]
    fn self_join_with_swapped_intermediates_is_equivalent() {
        // Same as above but the `writes` instances are wired the other way
        // around; the WL-refined signatures must still line the instances up.
        let a = "SELECT p.title FROM author a1, author a2, publication p, writes w1, writes w2 \
                 WHERE a1.name = 'John' AND a2.name = 'Jane' \
                 AND a1.aid = w1.aid AND a2.aid = w2.aid AND p.pid = w1.pid AND p.pid = w2.pid";
        let b = "SELECT p.title FROM author x, author y, publication p, writes u, writes v \
                 WHERE y.name = 'John' AND x.name = 'Jane' \
                 AND y.aid = v.aid AND x.aid = u.aid AND p.pid = u.pid AND p.pid = v.pid";
        assert_eq!(canon_str(a), canon_str(b));
    }

    #[test]
    fn equivalent_helper_matches_canonical_equality() {
        let a = parse_query("SELECT title FROM movie WHERE year = 2010").unwrap();
        let b = parse_query("SELECT m.title FROM movie m WHERE m.year = 2010").unwrap();
        let c = parse_query("SELECT m.title FROM movie m WHERE m.year = 2011").unwrap();
        assert!(equivalent(&a, &b));
        assert!(!equivalent(&a, &c));
    }

    #[test]
    fn case_differences_do_not_matter() {
        let a = "SELECT P.Title FROM Publication P WHERE P.Year > 2000";
        let b = "select p.title from publication p where p.year > 2000";
        assert_eq!(canon_str(a), canon_str(b));
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let q = parse_query(
            "SELECT p.title FROM journal j, publication p WHERE j.jid = p.jid AND j.name = 'TKDE'",
        )
        .unwrap();
        let once = canonicalize(&q);
        let twice = canonicalize(&once);
        assert_eq!(once, twice);
    }
}
