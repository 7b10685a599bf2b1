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

use crate::ast::*;
use std::collections::HashMap;

/// Produce the canonical form of a query.
pub fn canonicalize(query: &Query) -> Query {
    let mut q = query.clone();
    lowercase_query(&mut q);
    let rename = alias_renaming(&q);
    apply_renaming(&mut q, &rename);
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

/// Compute the canonical alias for every binding in the FROM clause.
fn alias_renaming(q: &Query) -> HashMap<String, String> {
    // Group FROM entries by relation name.
    let mut groups: HashMap<String, Vec<&TableRef>> = HashMap::new();
    for t in &q.from {
        groups.entry(t.table.clone()).or_default().push(t);
    }
    // Signatures only order the instances of a repeated relation (a
    // self-join); without one, every alias is `<relation>_1`.
    let sigs = if groups.values().any(|refs| refs.len() > 1) {
        refined_signatures(q)
    } else {
        HashMap::new()
    };
    let mut rename = HashMap::new();
    for (table, mut refs) in groups {
        // Order instances by their refined signature (then by original
        // binding for full determinism) so that equivalent queries number
        // their self-join instances identically regardless of FROM order.
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
        // Unqualified references to the bare table name should also resolve.
        rename.entry(table.clone()).or_insert(format!("{table}_1"));
    }
    rename
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

fn apply_renaming(q: &mut Query, rename: &HashMap<String, String>) {
    for t in &mut q.from {
        let binding = t.binding().to_string();
        if let Some(new) = rename.get(&binding) {
            t.alias = Some(new.clone());
        }
    }
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

/// The canonicalizer as it was before its fast paths (signatures built for
/// every query, every identifier lower-cased, operands cloned, clause keys
/// rendered in every comparison): the reference the fast paths are checked
/// against.
#[cfg(test)]
mod reference {
    use super::{apply_renaming, qualify_unqualified_columns, refined_signatures};
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

/// The random query strategies of `tests/properties.rs`, which name the AST
/// and `is_keyword` through `super`.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
#[cfg(test)]
use crate::token::is_keyword;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn canon_str(sql: &str) -> String {
        let q = parse_query(sql).unwrap();
        assert_eq!(canonicalize(&q), reference::canonicalize(&q), "{sql}");
        canonicalize(&q).to_string()
    }

    /// The fast paths against the reference on every gold query of the
    /// benchmarks and on every SQL candidate `construct_query` builds for
    /// their cases (every configuration and join path Pipeline+ returns
    /// over the full log).  The benchmark crates link their own copy of
    /// this crate, so the queries cross over as SQL text.
    #[test]
    fn oracle_matches_reference_on_benchmark_sql() {
        use templar_core::{BagItem, MappedElement, Templar};
        let (mut gold, mut candidates) = (0, 0);
        let check = |sql: String| {
            let q = parse_query(&sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            assert_eq!(canonicalize(&q), reference::canonicalize(&q), "{sql}");
        };
        for dataset in datasets::Dataset::all() {
            let templar = Templar::new(dataset.db.clone(), &dataset.full_log(), Default::default())
                .expect("benchmark Templar");
            let config = templar.config().clone();
            for case in &dataset.cases {
                check(case.gold_sql.to_string());
                gold += 1;
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
                            check(q.to_string());
                            candidates += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(gold, 449);
        assert!(candidates > 449, "only {candidates} candidates");
    }

    /// Random queries whose FROM entries have distinct bindings.  Both
    /// canonicalizers map a binding that two entries share (invalid SQL)
    /// through a hash map in its iteration order, so such queries have no
    /// single canonical form to compare.
    fn distinct_binding_queries() -> impl Strategy<Value = Query> {
        common::query_strategy().prop_filter("distinct bindings", |q| {
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
