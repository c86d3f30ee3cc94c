//! Static dependency analysis of FTL queries: which updates can change a
//! continuous query's materialized answer?
//!
//! Section 2.3 only says `Answer(CQ)` "has to be reevaluated when an update
//! occurs **that may change the set of tuples**" — the refresh engine makes
//! that qualifier operational.  A [`DepSet`] is extracted once, at
//! registration, by walking the query's [`most_ftl::ast`] with the
//! [`Formula::visit`](most_ftl::Formula::visit) /
//! [`Term::visit`](most_ftl::Term::visit) visitors:
//!
//! * every region named by `INSIDE` / `OUTSIDE` / `INSIDE_MOVING` is
//!   recorded (spatial predicates also mark the query position-dependent);
//! * every attribute name read through `o.NAME` is recorded, except the
//!   motion sub-attributes `X`/`Y`/`VX`/`VY`/`SPEED`
//!   ([`most_ftl::numeric::is_motion_attr`]), which the evaluator serves
//!   from the trajectory and therefore depend on *position* updates;
//! * `DIST` and `WITHIN_SPHERE` read positions.
//!
//! An update is then tested with [`DepSet::affected_by`]: a motion-vector
//! or position report is relevant only to position-dependent queries, an
//! attribute write only to queries mentioning that attribute name, a
//! region write only to queries naming that region, and a
//! domain change (insert/remove) is conservatively relevant to everything —
//! FTL variables range over the whole active domain (the grammar has no
//! class predicate, so object classes never narrow a dependency set; class
//! filtering would require a class atom first and is future work), and
//! negation/expansion make every query sensitive to the domain.
//!
//! Soundness (property-tested in `tests/continuous_maintenance.rs`):
//! evaluation is a deterministic function of the active domain, the
//! trajectories, the mentioned attributes' series and the referenced
//! regions.  An update that changes none of the components a query reads
//! leaves its re-evaluation unchanged on the window the materialized answer
//! already covers, so skipping the refresh is invisible there.  What a skip
//! does forgo is the horizon extension a re-evaluation at a later tick
//! brings (ROADMAP item 4).

use most_ftl::ast::{Formula, Term};
use most_ftl::numeric::is_motion_attr;
use most_ftl::Query;
use most_testkit::ser::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeSet;

/// The classification of one explicit update, as seen by the refresh
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateKind {
    /// A motion-vector change or full position report: the object's
    /// trajectory — and with it every motion sub-attribute — changed.
    Motion,
    /// A static or scalar-dynamic attribute of the given name changed.
    Attr(String),
    /// The active domain changed (object inserted or removed).  Always
    /// refresh-relevant.
    Domain,
    /// The named region's polygon was (re)placed.  Names no object.
    Region(String),
}

/// The statically-extracted dependency set of a registered query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepSet {
    /// Whether any predicate reads object positions (spatial predicates,
    /// `DIST`, or the motion sub-attributes `X`/`Y`/`VX`/`VY`/`SPEED`).
    pub position: bool,
    /// Non-motion attribute names read via `o.NAME`.
    pub attrs: BTreeSet<String>,
    /// Region names referenced by spatial predicates.
    pub regions: BTreeSet<String>,
}

impl DepSet {
    /// Extracts the dependency set of a query.
    pub fn of_query(q: &Query) -> DepSet {
        DepSet::of_formula(&q.formula)
    }

    /// Extracts the dependency set of a bare formula.
    pub fn of_formula(f: &Formula) -> DepSet {
        let mut deps = DepSet::default();
        f.visit(&mut |g| match g {
            Formula::Inside(_, region) | Formula::Outside(_, region) => {
                deps.position = true;
                deps.regions.insert(region.clone());
            }
            Formula::InsideMoving(_, region, _) | Formula::OutsideMoving(_, region, _) => {
                deps.position = true;
                deps.regions.insert(region.clone());
            }
            Formula::WithinSphere(..) => deps.position = true,
            _ => {}
        });
        f.visit_terms(&mut |t| {
            t.visit(&mut |sub| match sub {
                Term::Attr(_, name) => {
                    if is_motion_attr(name) {
                        deps.position = true;
                    } else {
                        deps.attrs.insert(name.clone());
                    }
                }
                Term::Dist(..) => deps.position = true,
                _ => {}
            })
        });
        deps
    }

    /// Whether an update of the given kind can change this query's answer.
    /// `Domain` is always relevant; `Motion` only when the query reads
    /// positions; `Attr(name)` only when the query mentions `name`;
    /// `Region(name)` only when it names that region.
    pub fn affected_by(&self, kind: &UpdateKind) -> bool {
        match kind {
            UpdateKind::Domain => true,
            UpdateKind::Motion => self.position,
            UpdateKind::Attr(name) => self.attrs.contains(name),
            UpdateKind::Region(name) => self.regions.contains(name),
        }
    }

    /// Whether any update at all can be skipped for this query (false for
    /// queries that read positions *and* every attribute — in practice:
    /// false only when both components are empty, since a query depending
    /// on nothing is refreshed only by domain changes).
    pub fn is_constant(&self) -> bool {
        !self.position && self.attrs.is_empty()
    }
}

impl ToJson for DepSet {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("position".to_owned(), self.position.to_json()),
            (
                "attrs".to_owned(),
                self.attrs
                    .iter()
                    .cloned()
                    .collect::<Vec<String>>()
                    .to_json(),
            ),
            (
                "regions".to_owned(),
                self.regions
                    .iter()
                    .cloned()
                    .collect::<Vec<String>>()
                    .to_json(),
            ),
        ])
    }
}

impl FromJson for DepSet {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let attrs: Vec<String> = FromJson::from_json(j.field("attrs")?)?;
        let regions: Vec<String> = FromJson::from_json(j.field("regions")?)?;
        Ok(DepSet {
            position: FromJson::from_json(j.field("position")?)?,
            attrs: attrs.into_iter().collect(),
            regions: regions.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps(src: &str) -> DepSet {
        DepSet::of_query(&Query::parse(src).expect("query parses"))
    }

    #[test]
    fn spatial_query_depends_on_position_and_region() {
        let d = deps("RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)");
        assert!(d.position);
        assert!(d.regions.contains("P"));
        assert!(d.attrs.is_empty());
        assert!(d.affected_by(&UpdateKind::Motion));
        assert!(d.affected_by(&UpdateKind::Domain));
        assert!(!d.affected_by(&UpdateKind::Attr("PRICE".into())));
        assert!(d.affected_by(&UpdateKind::Region("P".into())));
        assert!(!d.affected_by(&UpdateKind::Region("Q".into())));
    }

    #[test]
    fn attribute_query_ignores_motion() {
        let d = deps("RETRIEVE o WHERE o.PRICE <= 100");
        assert!(!d.position);
        assert_eq!(d.attrs.iter().collect::<Vec<_>>(), vec!["PRICE"]);
        assert!(!d.affected_by(&UpdateKind::Motion));
        assert!(d.affected_by(&UpdateKind::Attr("PRICE".into())));
        assert!(!d.affected_by(&UpdateKind::Attr("FUEL".into())));
    }

    #[test]
    fn motion_sub_attributes_count_as_position() {
        let d = deps("RETRIEVE o WHERE [x <- o.SPEED] Always (o.SPEED = x)");
        assert!(d.position);
        assert!(d.attrs.is_empty(), "SPEED is served from the trajectory");
        let d = deps("RETRIEVE o WHERE o.X <= 10 AND o.FUEL >= 5");
        assert!(d.position);
        assert_eq!(d.attrs.iter().collect::<Vec<_>>(), vec!["FUEL"]);
    }

    #[test]
    fn dist_and_sphere_read_positions() {
        assert!(deps("RETRIEVE o WHERE DIST(o, POINT(0, 0)) <= 5").position);
        assert!(deps("RETRIEVE o, n WHERE WITHIN_SPHERE(10, o, n)").position);
    }

    #[test]
    fn mixed_query_collects_everything() {
        let d = deps("RETRIEVE o WHERE o.PRICE <= 100 AND (INSIDE(o, P) OR OUTSIDE(o, Q))");
        assert!(d.position);
        assert_eq!(d.regions.iter().collect::<Vec<_>>(), vec!["P", "Q"]);
        assert_eq!(d.attrs.iter().collect::<Vec<_>>(), vec!["PRICE"]);
        assert!(!d.is_constant());
    }

    #[test]
    fn constant_query_depends_only_on_domain() {
        let d = deps("RETRIEVE o WHERE true");
        assert!(d.is_constant());
        assert!(!d.affected_by(&UpdateKind::Motion));
        assert!(!d.affected_by(&UpdateKind::Attr("PRICE".into())));
        assert!(d.affected_by(&UpdateKind::Domain));
    }

    #[test]
    fn json_round_trip() {
        let d = deps("RETRIEVE o WHERE o.PRICE <= 100 AND INSIDE(o, P)");
        let back = DepSet::from_json(&d.to_json()).expect("round-trips");
        assert_eq!(d, back);
    }
}
