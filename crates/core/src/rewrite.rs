//! MOST on top of an existing DBMS (Section 5.1).
//!
//! "We store each dynamic attribute A as three DBMS attributes A.value,
//! A.updatetime, and A.function.  Any query posed to the DBMS is first
//! examined (and possibly modified) by the MOST system, and so is the
//! answer of the DBMS before it is returned to the user."
//!
//! The physical columns use `_` instead of `.` (`A_value`, `A_updatetime`,
//! `A_function`) because the substrate engine reserves `.` for
//! alias-qualified names.
//!
//! WHERE clauses containing atoms over dynamic attributes are decomposed
//! per the paper's equivalence `F = (F' ∧ p) ∨ (F'' ∧ ¬p)` — `F'` is `F`
//! with `p` replaced by `true`, `F''` with `false` — recursively until no
//! dynamic atoms remain.  The resulting (up to `2^k`) nontemporal queries
//! run on the host DBMS with the relevant sub-attributes and each FROM
//! table's key added to the target list; the MOST layer then evaluates the
//! eliminated atoms on the returned tuples at the query's entry time and
//! unions the survivors (experiment E5 measures the blow-up).

use crate::error::{CoreError, CoreResult};
use most_dbms::exec::{execute_with_stats, ResultSet};
use most_dbms::expr::Expr;
use most_dbms::query::{SelectQuery, TableRef};
use most_dbms::schema::{ColumnDef, ColumnType, Schema};
use most_dbms::tuple::Tuple;
use most_dbms::value::Value;
use most_dbms::Catalog;
use most_ftl::context::{StaticSeries, StoredAttr};
use most_temporal::Tick;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Declaration of a table managed by the MOST layer.
#[derive(Debug, Clone)]
pub struct MovingTableDef {
    /// Table name.
    pub name: String,
    /// Static columns (the first is the primary key).
    pub static_columns: Vec<(String, ColumnType)>,
    /// Logical dynamic attributes (each stored as three physical columns).
    pub dynamic_attrs: Vec<String>,
}

/// Per-query rewrite statistics (experiment E5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Dynamic atoms eliminated.
    pub dynamic_atoms: u32,
    /// Host-DBMS subqueries executed (≤ 2^k).
    pub subqueries: u64,
    /// Tuples returned by the host DBMS before post-filtering.
    pub tuples_scanned: u64,
    /// Tuples surviving the post-filter.
    pub tuples_kept: u64,
}

/// The MOST software layer wrapping a host DBMS catalog.
#[derive(Debug, Clone, Default)]
pub struct MostDbmsLayer {
    catalog: Catalog,
    dynamic: BTreeMap<String, BTreeSet<String>>,
}

impl MostDbmsLayer {
    /// An empty layer over an empty host catalog.
    pub fn new() -> Self {
        MostDbmsLayer::default()
    }

    /// Direct access to the host catalog (tests / advanced use).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Creates a table with static columns and dynamic attributes.
    pub fn create_table(&mut self, def: MovingTableDef) -> CoreResult<()> {
        let mut cols: Vec<ColumnDef> = def
            .static_columns
            .iter()
            .map(|(n, t)| ColumnDef::new(n.clone(), *t))
            .collect();
        for a in &def.dynamic_attrs {
            cols.push(ColumnDef::new(format!("{a}_value"), ColumnType::Float));
            cols.push(ColumnDef::new(format!("{a}_updatetime"), ColumnType::Time));
            cols.push(ColumnDef::new(format!("{a}_function"), ColumnType::Float));
        }
        let key = def
            .static_columns
            .first()
            .map(|(n, _)| n.clone())
            .ok_or_else(|| CoreError::AttributeKind {
                attr: "<key>".into(),
                detail: "a moving table needs at least one static (key) column".into(),
            })?;
        let schema = Schema::with_key(cols, &key)?;
        self.catalog.create_table(def.name.clone(), schema)?;
        self.dynamic.insert(
            def.name.clone(),
            def.dynamic_attrs.iter().cloned().collect(),
        );
        Ok(())
    }

    /// Inserts a row: static values in declaration order, then one
    /// `(value, updatetime, slope)` triple per dynamic attribute.
    pub fn insert(
        &mut self,
        table: &str,
        statics: Vec<Value>,
        dynamics: Vec<(f64, Tick, f64)>,
    ) -> CoreResult<()> {
        let mut row = statics;
        for (v, t, s) in dynamics {
            row.push(Value::from(v));
            row.push(Value::Time(t));
            row.push(Value::from(s));
        }
        self.catalog.table_mut(table)?.insert(row)?;
        Ok(())
    }

    /// Explicitly updates a dynamic attribute's sub-attributes at tick
    /// `now` (value continues from the old function when `value` is
    /// `None`).
    pub fn update_dynamic(
        &mut self,
        table: &str,
        key: &Value,
        attr: &str,
        now: Tick,
        value: Option<f64>,
        slope: Option<f64>,
    ) -> CoreResult<()> {
        let t = self.catalog.table(table)?;
        let schema = t.schema();
        let row = t
            .get_by_key(key)
            .ok_or_else(|| CoreError::Db(most_dbms::DbError::KeyNotFound(key.clone())))?;
        let get = |suffix: &str| -> CoreResult<f64> {
            let idx = schema
                .index_of(&format!("{attr}_{suffix}"))
                .ok_or_else(|| CoreError::AttributeKind {
                    attr: attr.to_owned(),
                    detail: format!("`{attr}` is not a dynamic attribute of `{table}`"),
                })?;
            row.get(idx)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| CoreError::AttributeKind {
                    attr: attr.to_owned(),
                    detail: "corrupt sub-attribute".into(),
                })
        };
        let old_value = get("value")?;
        let old_time = get("updatetime")?;
        let old_slope = get("function")?;
        let new_value = value.unwrap_or(old_value + old_slope * (now as f64 - old_time));
        let new_slope = slope.unwrap_or(old_slope);
        let t = self.catalog.table_mut(table)?;
        t.update_by_key(key, &format!("{attr}_value"), Value::from(new_value))?;
        t.update_by_key(key, &format!("{attr}_updatetime"), Value::Time(now))?;
        t.update_by_key(key, &format!("{attr}_function"), Value::from(new_slope))?;
        Ok(())
    }

    /// Classifies a column reference: `Some(attr base name with optional
    /// alias prefix)` when it names a logical dynamic attribute.
    fn dynamic_ref(&self, from: &[TableRef], name: &str) -> Option<(String, String)> {
        if let Some((alias, attr)) = name.split_once('.') {
            let tref = from.iter().find(|t| t.alias == alias)?;
            if self.dynamic.get(&tref.table)?.contains(attr) {
                return Some((format!("{alias}."), attr.to_owned()));
            }
            None
        } else {
            for tref in from {
                if let Some(set) = self.dynamic.get(&tref.table) {
                    if set.contains(name) {
                        return Some((String::new(), name.to_owned()));
                    }
                }
            }
            None
        }
    }

    fn atom_is_dynamic(&self, from: &[TableRef], atom: &Expr) -> bool {
        atom.columns()
            .iter()
            .any(|c| self.dynamic_ref(from, c).is_some())
    }

    /// Executes a logical query whose SELECT and WHERE may reference
    /// dynamic attributes by name; `now` is the entry time at which their
    /// current values are computed.  Projection expressions must be plain
    /// column references.
    pub fn query(&self, q: &SelectQuery, now: Tick) -> CoreResult<(ResultSet, RewriteStats)> {
        for (name, e) in &q.select {
            if !matches!(e, Expr::Column(_)) {
                return Err(CoreError::AttributeKind {
                    attr: name.clone(),
                    detail: "the MOST layer projects plain columns only".into(),
                });
            }
        }
        let mut stats = RewriteStats::default();
        let dynamic_atoms: Vec<Expr> = q
            .where_clause
            .atoms()
            .into_iter()
            .filter(|a| self.atom_is_dynamic(&q.from, a))
            .cloned()
            .collect();
        stats.dynamic_atoms = dynamic_atoms.len() as u32;

        // Physical columns the leaves must retrieve.
        let mut fetch: BTreeSet<String> = BTreeSet::new();
        let add_col =
            |fetch: &mut BTreeSet<String>, name: &str| match self.dynamic_ref(&q.from, name) {
                Some((prefix, attr)) => {
                    fetch.insert(format!("{prefix}{attr}_value"));
                    fetch.insert(format!("{prefix}{attr}_updatetime"));
                    fetch.insert(format!("{prefix}{attr}_function"));
                }
                None => {
                    fetch.insert(name.to_owned());
                }
            };
        for (_, e) in &q.select {
            if let Expr::Column(c) = e {
                add_col(&mut fetch, c);
            }
        }
        for atom in &dynamic_atoms {
            for c in atom.columns() {
                add_col(&mut fetch, c);
            }
        }
        // "We ensure this by including in the target list of all four
        // queries, a key of each relation in the FROM clause."
        for tref in &q.from {
            let table = self.catalog.table(&tref.table)?;
            if let Some(k) = table.schema().key_index() {
                fetch.insert(format!(
                    "{}.{}",
                    tref.alias,
                    table.schema().columns()[k].name
                ));
            }
        }
        let fetch: Vec<String> = fetch.into_iter().collect();

        let mut rows: Vec<Tuple> = Vec::new();
        self.eval_rec(
            q,
            &q.where_clause,
            &dynamic_atoms,
            &mut Vec::new(),
            &fetch,
            now,
            &mut rows,
            &mut stats,
        )?;

        // Project to the requested outputs, computing dynamic values.
        let col_index: BTreeMap<&str, usize> = fetch
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in rows {
            let mut out = Vec::with_capacity(q.select.len());
            for (_, e) in &q.select {
                let Expr::Column(c) = e else {
                    unreachable!("validated above")
                };
                out.push(self.column_value(&q.from, c, &row, &col_index, now)?);
            }
            out_rows.push(Tuple::new(out));
        }
        out_rows.sort();
        out_rows.dedup();
        stats.tuples_kept = out_rows.len() as u64;
        Ok((
            ResultSet {
                columns: q.select.iter().map(|(n, _)| n.clone()).collect(),
                rows: out_rows,
            },
            stats,
        ))
    }

    /// Recursive atom elimination: the `EVAL(Q)` procedure.
    #[allow(clippy::too_many_arguments)]
    fn eval_rec(
        &self,
        q: &SelectQuery,
        where_clause: &Expr,
        atoms: &[Expr],
        pinned: &mut Vec<(Expr, bool)>,
        fetch: &[String],
        now: Tick,
        rows: &mut Vec<Tuple>,
        stats: &mut RewriteStats,
    ) -> CoreResult<()> {
        match atoms.first() {
            Some(p) => {
                let rest = &atoms[1..];
                for truth in [true, false] {
                    let substituted = where_clause.substitute_atom(p, truth);
                    pinned.push((p.clone(), truth));
                    self.eval_rec(q, &substituted, rest, pinned, fetch, now, rows, stats)?;
                    pinned.pop();
                }
                Ok(())
            }
            None => {
                // Leaf: a purely static query for the host DBMS.
                let leaf = SelectQuery {
                    select: fetch
                        .iter()
                        .map(|c| (c.clone(), Expr::Column(c.clone())))
                        .collect(),
                    from: q.from.clone(),
                    where_clause: where_clause.clone(),
                };
                let (rs, _) = execute_with_stats(&self.catalog, &leaf)?;
                stats.subqueries += 1;
                stats.tuples_scanned += rs.rows.len() as u64;
                let col_index: BTreeMap<&str, usize> = fetch
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.as_str(), i))
                    .collect();
                for row in rs.rows {
                    let mut keep = true;
                    for (atom, expected) in pinned.iter() {
                        let actual = atom.eval_bool(&|name: &str| {
                            self.column_value(&q.from, name, &row, &col_index, now)
                                .map_err(|_| most_dbms::DbError::UnknownColumn(name.to_owned()))
                        })?;
                        if actual != *expected {
                            keep = false;
                            break;
                        }
                    }
                    if keep {
                        rows.push(row);
                    }
                }
                Ok(())
            }
        }
    }

    /// The value of a logical column on a fetched row: dynamic attributes
    /// compute `value + function · (now − updatetime)`.
    fn column_value(
        &self,
        from: &[TableRef],
        name: &str,
        row: &Tuple,
        col_index: &BTreeMap<&str, usize>,
        now: Tick,
    ) -> CoreResult<Value> {
        let lookup = |col: &str| -> CoreResult<&Value> {
            col_index
                .get(col)
                .and_then(|&i| row.get(i))
                .ok_or_else(|| CoreError::Db(most_dbms::DbError::UnknownColumn(col.to_owned())))
        };
        match self.dynamic_ref(from, name) {
            Some((prefix, attr)) => {
                let v = lookup(&format!("{prefix}{attr}_value"))?
                    .as_f64()
                    .unwrap_or(0.0);
                let t = lookup(&format!("{prefix}{attr}_updatetime"))?
                    .as_f64()
                    .unwrap_or(0.0);
                let s = lookup(&format!("{prefix}{attr}_function"))?
                    .as_f64()
                    .unwrap_or(0.0);
                Ok(Value::from(v + s * (now as f64 - t)))
            }
            None => lookup(name).cloned(),
        }
    }

    /// An FTL evaluation context over one layer-managed table, realizing the
    /// last step of Section 5.1: "corresponding to [each maximal
    /// non-temporal subformula] g we compute a relation G ... by using the
    /// decomposition method for non-temporal queries described above.  All
    /// the relations computed in this fashion are combined using the
    /// procedure in the appendix."  Objects are the table's rows (keyed by
    /// an `Id` column); positions come from dynamic attributes named `X`
    /// and `Y` anchored at `now`; every other column is a static attribute.
    pub fn ftl_context(
        &self,
        table: &str,
        now: Tick,
        horizon: most_temporal::Duration,
        regions: std::collections::BTreeMap<String, most_spatial::Polygon>,
    ) -> CoreResult<LayerContext<'_>> {
        let t = self.catalog.table(table)?;
        let key = t
            .schema()
            .key_index()
            .ok_or_else(|| CoreError::AttributeKind {
                attr: "<key>".into(),
                detail: "ftl_context requires a keyed table".into(),
            })?;
        Ok(LayerContext {
            layer: self,
            table: table.to_owned(),
            key,
            now,
            horizon,
            regions,
        })
    }
}

/// [`most_ftl::EvalContext`] view of a [`MostDbmsLayer`] table (Section 5.1
/// temporal queries over the host DBMS).  Its horizon runs from the tick
/// `now` passed to [`MostDbmsLayer::ftl_context`], on the global clock.
pub struct LayerContext<'a> {
    layer: &'a MostDbmsLayer,
    table: String,
    key: usize,
    now: Tick,
    horizon: most_temporal::Duration,
    regions: std::collections::BTreeMap<String, most_spatial::Polygon>,
}

impl LayerContext<'_> {
    fn row_of(&self, id: u64) -> Option<&Tuple> {
        self.layer
            .catalog
            .table(&self.table)
            .ok()?
            .get_by_key(&Value::Id(id))
    }

    /// Reads the (value, updatetime, slope) triple of a dynamic attribute.
    fn dynamic_triple(&self, row: &Tuple, attr: &str) -> Option<(f64, f64, f64)> {
        let schema = self.layer.catalog.table(&self.table).ok()?.schema().clone();
        let get = |col: String| -> Option<f64> {
            schema
                .index_of(&col)
                .and_then(|i| row.get(i))
                .and_then(|v| v.as_f64())
        };
        Some((
            get(format!("{attr}_value"))?,
            get(format!("{attr}_updatetime"))?,
            get(format!("{attr}_function"))?,
        ))
    }
}

impl most_ftl::EvalContext for LayerContext<'_> {
    fn horizon(&self) -> most_temporal::Horizon {
        most_temporal::Horizon::between(self.now, self.now.saturating_add(self.horizon))
    }

    fn object_ids(&self) -> Vec<u64> {
        let Ok(t) = self.layer.catalog.table(&self.table) else {
            return Vec::new();
        };
        let mut ids: Vec<u64> = t
            .rows()
            .iter()
            .filter_map(|r| r.get(self.key).and_then(|v| v.as_id()))
            .collect();
        ids.sort_unstable();
        ids
    }

    fn trajectory(&self, id: u64) -> Option<Cow<'_, most_spatial::Trajectory>> {
        let row = self.row_of(id)?;
        let (xv, xt, xs) = self.dynamic_triple(row, "X")?;
        let (yv, yt, ys) = self.dynamic_triple(row, "Y")?;
        // One leg from `now`: the position then, extrapolated per
        // sub-attribute triple (X and Y keep their own updatetimes).
        let x = xv + xs * (self.now as f64 - xt);
        let y = yv + ys * (self.now as f64 - yt);
        Some(Cow::Owned(most_spatial::Trajectory::new(
            most_spatial::MovingPoint::new(
                most_spatial::Point::new(x, y),
                self.now,
                most_spatial::Velocity::new(xs, ys),
            ),
        )))
    }

    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        let Some(row) = self.row_of(id) else {
            return StoredAttr::Missing;
        };
        let horizon = most_ftl::EvalContext::horizon(self).span();
        // A dynamic attribute's columns are its sub-attributes, never a
        // static value.
        let dynamic = self.layer.dynamic.get(&self.table);
        if dynamic.is_some_and(|set| set.contains(name)) {
            return match self.dynamic_triple(row, name) {
                // value = v + s·(t' − t) at tick t'
                Some((v, t, s)) => StoredAttr::Dynamic(vec![(horizon, t as Tick, [0.0, s, v])]),
                None => StoredAttr::Missing,
            };
        }
        let schema = self.layer.catalog.table(&self.table).map(|t| t.schema());
        match schema
            .ok()
            .and_then(|s| s.index_of(name))
            .and_then(|i| row.get(i))
        {
            Some(v) => StoredAttr::Static(StaticSeries::One((v.clone(), horizon))),
            None => StoredAttr::Missing,
        }
    }

    fn region(&self, name: &str) -> Option<most_spatial::Polygon> {
        self.regions.get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_dbms::expr::CmpOp;

    /// Cars with a static PRICE and dynamic position coordinates.
    fn layer() -> MostDbmsLayer {
        let mut l = MostDbmsLayer::new();
        l.create_table(MovingTableDef {
            name: "cars".into(),
            static_columns: vec![
                ("id".into(), ColumnType::Id),
                ("price".into(), ColumnType::Float),
            ],
            dynamic_attrs: vec!["X".into(), "Y".into()],
        })
        .unwrap();
        // Car 1 heads east from 0 at speed 1; car 2 parked at x=100;
        // car 3 heads west from 200 at speed 2.
        l.insert(
            "cars",
            vec![Value::Id(1), 80.0.into()],
            vec![(0.0, 0, 1.0), (0.0, 0, 0.0)],
        )
        .unwrap();
        l.insert(
            "cars",
            vec![Value::Id(2), 150.0.into()],
            vec![(100.0, 0, 0.0), (0.0, 0, 0.0)],
        )
        .unwrap();
        l.insert(
            "cars",
            vec![Value::Id(3), 60.0.into()],
            vec![(200.0, 0, -2.0), (5.0, 0, 0.0)],
        )
        .unwrap();
        l
    }

    fn col(n: &str) -> Expr {
        Expr::Column(n.into())
    }

    #[test]
    fn select_clause_dynamic_attribute_computed() {
        let l = layer();
        // SELECT id, X FROM cars — no dynamic atoms in WHERE.
        let q = SelectQuery::from_table("cars").column("id").column("X");
        let (rs, stats) = l.query(&q, 50).unwrap();
        assert_eq!(stats.dynamic_atoms, 0);
        assert_eq!(stats.subqueries, 1);
        assert_eq!(rs.len(), 3);
        // Car 1 at x=50 at t=50.
        let r1 = rs
            .rows
            .iter()
            .find(|r| r.get(0) == Some(&Value::Id(1)))
            .unwrap();
        assert_eq!(r1.get(1), Some(&Value::from(50.0)));
        // Car 3 at 200 - 100 = 100.
        let r3 = rs
            .rows
            .iter()
            .find(|r| r.get(0) == Some(&Value::Id(3)))
            .unwrap();
        assert_eq!(r3.get(1), Some(&Value::from(100.0)));
    }

    #[test]
    fn single_dynamic_atom_two_subqueries() {
        let l = layer();
        // WHERE X <= 90 AND price <= 100
        let q = SelectQuery::from_table("cars").column("id").filter(
            Expr::cmp(CmpOp::Le, col("X"), Expr::val(90.0)).and(Expr::cmp(
                CmpOp::Le,
                col("price"),
                Expr::val(100.0),
            )),
        );
        let (rs, stats) = l.query(&q, 50).unwrap();
        assert_eq!(stats.dynamic_atoms, 1);
        assert_eq!(stats.subqueries, 2);
        // At t=50: car 1 at 50 (price 80 ✓), car 2 at 100 (fails X),
        // car 3 at 100 (fails X).
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0), Some(&Value::Id(1)));
    }

    #[test]
    fn k_atoms_two_to_the_k_subqueries() {
        let l = layer();
        // Three dynamic atoms: X >= 40, X <= 120, Y <= 1.
        let q = SelectQuery::from_table("cars").column("id").filter(
            Expr::cmp(CmpOp::Ge, col("X"), Expr::val(40.0))
                .and(Expr::cmp(CmpOp::Le, col("X"), Expr::val(120.0)))
                .and(Expr::cmp(CmpOp::Le, col("Y"), Expr::val(1.0))),
        );
        let (rs, stats) = l.query(&q, 50).unwrap();
        assert_eq!(stats.dynamic_atoms, 3);
        assert_eq!(stats.subqueries, 8);
        // t=50: car 1 (x=50, y=0) ✓; car 2 (x=100, y=0) ✓; car 3 (x=100,
        // y=5) fails Y.
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn answers_depend_on_entry_time() {
        let l = layer();
        let q = SelectQuery::from_table("cars")
            .column("id")
            .filter(Expr::cmp(CmpOp::Le, col("X"), Expr::val(50.0)));
        let at_10: Vec<_> = l.query(&q, 10).unwrap().0.rows;
        let at_80: Vec<_> = l.query(&q, 80).unwrap().0.rows;
        // t=10: car 1 (x=10) only. t=80: car 1 at 80 fails; car 3 at 40
        // qualifies.
        assert_eq!(at_10.len(), 1);
        assert_eq!(at_10[0].get(0), Some(&Value::Id(1)));
        assert_eq!(at_80.len(), 1);
        assert_eq!(at_80[0].get(0), Some(&Value::Id(3)));
    }

    #[test]
    fn disjunctive_where_clause() {
        let l = layer();
        // X <= 10 OR price <= 70  (dynamic atom inside a disjunction).
        let q = SelectQuery::from_table("cars").column("id").filter(
            Expr::cmp(CmpOp::Le, col("X"), Expr::val(10.0)).or(Expr::cmp(
                CmpOp::Le,
                col("price"),
                Expr::val(70.0),
            )),
        );
        let (rs, stats) = l.query(&q, 5).unwrap();
        assert_eq!(stats.subqueries, 2);
        // t=5: car 1 at x=5 ✓ (X branch); car 3 price 60 ✓.
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn update_dynamic_attribute() {
        let mut l = layer();
        // Car 1 stops at t=30 (x=30).
        l.update_dynamic("cars", &Value::Id(1), "X", 30, None, Some(0.0))
            .unwrap();
        let q = SelectQuery::from_table("cars")
            .column("X")
            .filter(Expr::cmp(CmpOp::Eq, col("id"), Expr::Const(Value::Id(1))));
        let (rs, _) = l.query(&q, 100).unwrap();
        assert_eq!(rs.rows[0].get(0), Some(&Value::from(30.0)));
        // Unknown attr / key errors.
        assert!(l
            .update_dynamic("cars", &Value::Id(1), "Z", 30, None, None)
            .is_err());
        assert!(l
            .update_dynamic("cars", &Value::Id(9), "X", 30, None, None)
            .is_err());
    }

    #[test]
    fn join_with_dynamic_atoms() {
        let l = layer();
        // Pairs of distinct cars currently within 60 of each other on the
        // X axis: |X1 - X2| <= 60 expressed with two atoms.
        let q = SelectQuery {
            select: vec![("a".into(), col("c1.id")), ("b".into(), col("c2.id"))],
            from: vec![
                TableRef::aliased("cars", "c1"),
                TableRef::aliased("cars", "c2"),
            ],
            where_clause: Expr::cmp(
                CmpOp::Le,
                Expr::arith(most_dbms::expr::ArithOp::Sub, col("c1.X"), col("c2.X")),
                Expr::val(60.0),
            )
            .and(Expr::cmp(
                CmpOp::Ge,
                Expr::arith(most_dbms::expr::ArithOp::Sub, col("c1.X"), col("c2.X")),
                Expr::val(-60.0),
            ))
            .and(Expr::cmp(CmpOp::Lt, col("c1.id"), col("c2.id"))),
        };
        let (rs, stats) = l.query(&q, 50).unwrap();
        assert_eq!(stats.dynamic_atoms, 2);
        assert_eq!(stats.subqueries, 4);
        // t=50: positions 50, 100, 100 — pairs (1,2), (1,3), (2,3).
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn projection_expression_rejected() {
        let l = layer();
        let q = SelectQuery::from_table("cars").expr(
            "twice",
            Expr::arith(most_dbms::expr::ArithOp::Mul, col("X"), Expr::val(2.0)),
        );
        assert!(l.query(&q, 0).is_err());
    }
}
