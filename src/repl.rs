//! The `mostql` command processor: an interactive shell over a MOST
//! [`Database`].
//!
//! Commands (case-insensitive keywords; names are case-sensitive):
//!
//! ```text
//! CREATE <name> AT (x, y) VEL (dx, dy) [CLASS <class>]
//! SET <name>.<ATTR> = <value>                 -- static attribute
//! MOVE <name> VEL (dx, dy)                    -- motion-vector update
//! MOVE <name> AT (x, y) VEL (dx, dy)          -- full position report
//! DROP <name>
//! REGION <name> RECT (x0, y0, x1, y1)
//! TICK [n]                                    -- advance the clock
//! NOW                                         -- show the clock
//! OBJECTS                                     -- list objects
//! RETRIEVE ... WHERE ...                      -- instantaneous FTL query
//! CONTINUOUS RETRIEVE ... WHERE ...           -- register, prints cq<id>
//! SHOW cq<id> [AT t]                          -- display a continuous query
//! CANCEL cq<id>
//! EXPLAIN RETRIEVE ... WHERE ...              -- relation-size trace
//! NEAREST <name> [<class>]
//! SAVE <path> / LOAD <path>                   -- JSON snapshot of the session
//! HELP / QUIT
//! ```
//!
//! The processor is a pure function from a command line to output text, so
//! the whole surface is unit-testable; `src/bin/mostql.rs` wraps it in a
//! stdin loop.

use most_core::{CoreError, Database};
use most_dbms::value::Value;
use most_ftl::{explain_query, Query};
use most_spatial::{Point, Polygon, Velocity};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Interactive session state: the database plus name bindings.
pub struct Session {
    db: Database,
    names: BTreeMap<String, u64>,
    persistent: Vec<most_core::PersistentQuery>,
}

/// On-disk form of a session: the database (spatial index excluded) plus
/// the name bindings.  Persistent queries are intentionally not saved —
/// they are anchored to a live evaluation session.
struct SessionSnapshot {
    db: Database,
    names: BTreeMap<String, u64>,
}

most_testkit::json_struct!(SessionSnapshot { db, names });

/// Outcome of one command.
pub enum Outcome {
    /// Text to print.
    Text(String),
    /// The user asked to leave.
    Quit,
}

impl Session {
    /// A fresh session with the given query-expiration horizon.
    pub fn new(expiration: u64) -> Self {
        Session {
            db: Database::new(expiration),
            names: BTreeMap::new(),
            persistent: Vec::new(),
        }
    }

    /// Read-only access to the underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Executes one command line.
    pub fn execute(&mut self, line: &str) -> Outcome {
        match self.dispatch(line.trim()) {
            Ok(Some(text)) => Outcome::Text(text),
            Ok(None) => Outcome::Quit,
            Err(e) => Outcome::Text(format!("error: {e}")),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<Option<String>, String> {
        if line.is_empty() || line.starts_with('#') {
            return Ok(Some(String::new()));
        }
        let upper = line.to_ascii_uppercase();
        let first = upper.split_whitespace().next().unwrap_or_default().to_string();
        match first.as_str() {
            "QUIT" | "EXIT" => Ok(None),
            "HELP" => Ok(Some(HELP.trim().to_owned())),
            "NOW" => Ok(Some(format!("t = {}", self.db.now()))),
            "TICK" => {
                let n: u64 = match line.split_whitespace().nth(1) {
                    Some(s) => s.parse().map_err(|_| format!("bad tick count `{s}`"))?,
                    None => 1,
                };
                self.db.advance_clock(n);
                let events = self.db.take_trigger_events();
                let mut out = format!("t = {}", self.db.now());
                for e in events {
                    let _ = write!(out, "\ntrigger {} fired at t={} for {:?}", e.name, e.at, e.values);
                }
                Ok(Some(out))
            }
            "OBJECTS" => {
                let now = self.db.now();
                let mut out = String::new();
                for (name, id) in &self.names {
                    let o = self.db.object(*id).map_err(|e| e.to_string())?;
                    match (o.position_at(now), o.velocity_at(now)) {
                        (Some(p), Some(v)) => {
                            let _ = writeln!(out, "{name} (#{id}, {}): at {p}, vel {v}", o.class);
                        }
                        _ => {
                            let _ = writeln!(out, "{name} (#{id}, {})", o.class);
                        }
                    }
                }
                if out.is_empty() {
                    out = "(no objects)".into();
                }
                Ok(Some(out.trim_end().to_owned()))
            }
            "CREATE" => self.cmd_create(line).map(Some),
            "SET" => self.cmd_set(line).map(Some),
            "MOVE" => self.cmd_move(line).map(Some),
            "DROP" => self.cmd_drop(line).map(Some),
            "REGION" => self.cmd_region(line).map(Some),
            "RETRIEVE" => self.cmd_retrieve(line).map(Some),
            "CONTINUOUS" => self.cmd_continuous(line).map(Some),
            "SHOW" => self.cmd_show(line).map(Some),
            "CANCEL" => self.cmd_cancel(line).map(Some),
            "EXPLAIN" => self.cmd_explain(line).map(Some),
            "PERSISTENT" => self.cmd_persistent(line).map(Some),
            "SAVE" => self.cmd_save(line).map(Some),
            "LOAD" => self.cmd_load(line).map(Some),
            "TRIGGER" => self.cmd_trigger(line).map(Some),
            "NEAREST" => self.cmd_nearest(line).map(Some),
            other => Err(format!("unknown command `{other}` (try HELP)")),
        }
    }

    fn lookup(&self, name: &str) -> Result<u64, String> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown object `{name}`"))
    }

    fn cmd_create(&mut self, line: &str) -> Result<String, String> {
        // CREATE <name> AT (x, y) VEL (dx, dy) [CLASS <class>]
        let name = nth_word(line, 1)?;
        if self.names.contains_key(&name) {
            return Err(format!("object `{name}` already exists"));
        }
        let at = pair_after(line, "AT")?;
        let vel = pair_after(line, "VEL")?;
        let class = word_after(line, "CLASS").unwrap_or_else(|| "objects".to_owned());
        let id = self.db.next_object_id();
        let (position, velocity) = (Point::new(at.0, at.1), Velocity::new(vel.0, vel.1));
        self.db
            .insert_moving_object_with_id(id, class, position, velocity)
            .map_err(|e| e.to_string())?;
        self.names.insert(name.clone(), id);
        Ok(format!("{name} = #{id}"))
    }

    fn cmd_set(&mut self, line: &str) -> Result<String, String> {
        // SET <name>.<ATTR> = <value>
        let target = nth_word(line, 1)?;
        let (name, attr) = target
            .split_once('.')
            .ok_or_else(|| "expected <name>.<ATTR>".to_owned())?;
        let id = self.lookup(name)?;
        let rhs = line
            .split_once('=')
            .map(|(_, r)| r.trim())
            .ok_or_else(|| "expected `= <value>`".to_owned())?;
        let value: Value = match rhs.parse::<f64>() {
            Ok(x) => x.into(),
            Err(_) => rhs.trim_matches('\'').into(),
        };
        self.db
            .set_static(id, attr, value)
            .map_err(|e: CoreError| e.to_string())?;
        Ok(format!("{name}.{attr} set"))
    }

    fn cmd_move(&mut self, line: &str) -> Result<String, String> {
        let name = nth_word(line, 1)?;
        let id = self.lookup(&name)?;
        let vel = pair_after(line, "VEL")?;
        let velocity = Velocity::new(vel.0, vel.1);
        if line.to_ascii_uppercase().contains(" AT ") {
            let at = pair_after(line, "AT")?;
            self.db
                .update_position(
                    id,
                    most_core::MotionUpdate { position: Point::new(at.0, at.1), velocity },
                )
                .map_err(|e| e.to_string())?;
        } else {
            self.db.update_motion(id, velocity).map_err(|e| e.to_string())?;
        }
        Ok(format!("{name} updated at t={}", self.db.now()))
    }

    fn cmd_drop(&mut self, line: &str) -> Result<String, String> {
        let name = nth_word(line, 1)?;
        let id = self.lookup(&name)?;
        self.db.remove_object(id).map_err(|e| e.to_string())?;
        self.names.remove(&name);
        Ok(format!("{name} dropped"))
    }

    fn cmd_region(&mut self, line: &str) -> Result<String, String> {
        // REGION <name> RECT (x0, y0, x1, y1)
        let name = nth_word(line, 1)?;
        let nums = numbers_in_parens(line)?;
        if nums.len() != 4 {
            return Err("REGION ... RECT needs four numbers".into());
        }
        self.db
            .add_region(&name, Polygon::rectangle(nums[0], nums[1], nums[2], nums[3]));
        Ok(format!("region {name} defined"))
    }

    fn cmd_retrieve(&mut self, line: &str) -> Result<String, String> {
        let q = Query::parse(line).map_err(|e| render_ftl_error(line, e))?;
        let now = self.db.now();
        let answer = self.db.instantaneous(&q).map_err(|e| e.to_string())?;
        let mut out = format!("{} rows (satisfaction in global ticks):\n{answer}", answer.len());
        let live = answer.at_tick(now).len();
        let _ = write!(out, "satisfied at the current tick ({now}): {live}");
        Ok(out)
    }

    fn cmd_continuous(&mut self, line: &str) -> Result<String, String> {
        let rest = line
            .split_once(char::is_whitespace)
            .map(|(_, r)| r)
            .ok_or_else(|| "expected CONTINUOUS RETRIEVE ...".to_owned())?;
        let q = Query::parse(rest)
            .map_err(|e| render_ftl_error(rest, e))?;
        let id = self.db.register_continuous(q).map_err(|e| e.to_string())?;
        Ok(format!("registered cq{id}"))
    }

    fn cmd_show(&mut self, line: &str) -> Result<String, String> {
        let handle = nth_word(line, 1)?;
        if let Some(pid) = handle.strip_prefix("pq").and_then(|s| s.parse::<usize>().ok()) {
            let db = &self.db;
            let pq = self
                .persistent
                .get_mut(pid)
                .ok_or_else(|| format!("unknown persistent query pq{pid}"))?;
            let rows = pq.satisfied_now(db).map_err(|e| e.to_string())?;
            let mut out = format!(
                "pq{pid} (anchored t={}): {} instantiations satisfied given the recorded history",
                pq.entered_at(),
                rows.len()
            );
            for r in rows {
                let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
                let _ = write!(out, "\n  ({})", cells.join(", "));
            }
            return Ok(out);
        }
        let id = parse_cq(&handle)?;
        let at = match word_after(line, "AT") {
            Some(t) => t.parse().map_err(|_| format!("bad tick `{t}`"))?,
            None => self.db.now(),
        };
        let rows = self
            .db
            .continuous_display(id, at)
            .map_err(|e| e.to_string())?;
        let mut out = format!("cq{id} at t={at}: {} instantiations", rows.len());
        for r in rows {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            let _ = write!(out, "\n  ({})", cells.join(", "));
        }
        Ok(out)
    }

    fn cmd_cancel(&mut self, line: &str) -> Result<String, String> {
        let handle = nth_word(line, 1)?;
        let id = parse_cq(&handle)?;
        self.db.cancel_continuous(id).map_err(|e| e.to_string())?;
        Ok(format!("cq{id} cancelled"))
    }

    fn cmd_explain(&mut self, line: &str) -> Result<String, String> {
        let rest = line
            .split_once(char::is_whitespace)
            .map(|(_, r)| r)
            .ok_or_else(|| "expected EXPLAIN RETRIEVE ...".to_owned())?;
        let q = Query::parse(rest)
            .map_err(|e| render_ftl_error(rest, e))?;
        let ctx = self.db.current_context();
        let (answer, trace) = explain_query(&ctx, &q).map_err(|e| e.to_string())?;
        let mut out = String::new();
        for node in &trace {
            let _ = writeln!(
                out,
                "{:>5} rows {:>6} spans {:>8} ticks | {}{}",
                node.rows,
                node.spans,
                node.ticks,
                "  ".repeat(node.depth),
                node.formula
            );
        }
        let _ = write!(out, "answer: {} rows", answer.len());
        Ok(out)
    }

    fn cmd_persistent(&mut self, line: &str) -> Result<String, String> {
        let rest = line
            .split_once(char::is_whitespace)
            .map(|(_, r)| r)
            .ok_or_else(|| "expected PERSISTENT RETRIEVE ...".to_owned())?;
        let q = Query::parse(rest).map_err(|e| render_ftl_error(rest, e))?;
        let pq = most_core::PersistentQuery::enter(&self.db, q);
        let id = self.persistent.len();
        self.persistent.push(pq);
        Ok(format!(
            "registered pq{id} (anchored at t={}; SHOW pq{id} re-evaluates over the recorded history)",
            self.db.now()
        ))
    }

    fn cmd_save(&mut self, line: &str) -> Result<String, String> {
        let path = nth_word(line, 1)?;
        let snapshot = SessionSnapshot { db: self.db.clone(), names: self.names.clone() };
        let json = most_testkit::ser::to_json_string(&snapshot)
            .map_err(|e| format!("serialize failed: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        Ok(format!(
            "saved {} objects at t={} to {path}",
            self.db.len(),
            self.db.now()
        ))
    }

    fn cmd_load(&mut self, line: &str) -> Result<String, String> {
        let path = nth_word(line, 1)?;
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let snapshot: SessionSnapshot = most_testkit::ser::from_json_str(&json)
            .map_err(|e| format!("cannot parse `{path}`: {e}"))?;
        self.db = snapshot.db;
        self.names = snapshot.names;
        self.persistent.clear();
        Ok(format!(
            "loaded {} objects, clock at t={} (persistent queries cleared; spatial index off)",
            self.db.len(),
            self.db.now()
        ))
    }

    fn cmd_trigger(&mut self, line: &str) -> Result<String, String> {
        // TRIGGER <name> RETRIEVE ...
        let name = nth_word(line, 1)?;
        let rest = line
            .splitn(3, char::is_whitespace)
            .nth(2)
            .ok_or_else(|| "expected TRIGGER <name> RETRIEVE ...".to_owned())?;
        let q = Query::parse(rest).map_err(|e| render_ftl_error(rest, e))?;
        let id = self.db.create_trigger(&name, q).map_err(|e| e.to_string())?;
        Ok(format!("trigger {name} (#{id}) armed; firings surface on TICK"))
    }

    fn cmd_nearest(&mut self, line: &str) -> Result<String, String> {
        let name = nth_word(line, 1)?;
        let id = self.lookup(&name)?;
        let class = line.split_whitespace().nth(2).map(str::to_owned);
        match self
            .db
            .nearest_object(id, class.as_deref())
            .map_err(|e| e.to_string())?
        {
            Some((other, d)) => {
                let label = self
                    .names
                    .iter()
                    .find(|(_, v)| **v == other)
                    .map(|(k, _)| k.clone())
                    .unwrap_or_else(|| format!("#{other}"));
                Ok(format!("nearest to {name}: {label} at distance {d:.2}"))
            }
            None => Ok("no candidate objects".into()),
        }
    }
}

const HELP: &str = r#"
commands:
  CREATE <name> AT (x, y) VEL (dx, dy) [CLASS <class>]
  SET <name>.<ATTR> = <value>
  MOVE <name> [AT (x, y)] VEL (dx, dy)
  DROP <name>
  REGION <name> RECT (x0, y0, x1, y1)
  TICK [n] | NOW | OBJECTS
  RETRIEVE ... WHERE <FTL formula>
  CONTINUOUS RETRIEVE ... | SHOW cq<id> [AT t] | CANCEL cq<id>
  PERSISTENT RETRIEVE ... | SHOW pq<id>
  TRIGGER <name> RETRIEVE ...
  EXPLAIN RETRIEVE ...
  NEAREST <name> [<class>]
  SAVE <path> | LOAD <path>
  HELP | QUIT
"#;

/// Renders an FTL error; parse errors get a caret under the offending
/// position.
fn render_ftl_error(src: &str, e: most_ftl::FtlError) -> String {
    if let most_ftl::FtlError::Parse { message, offset } = &e {
        let col = (*offset).min(src.len());
        format!("{src}\n{}^ {message}", " ".repeat(col))
    } else {
        e.to_string()
    }
}

fn nth_word(line: &str, n: usize) -> Result<String, String> {
    line.split_whitespace()
        .nth(n)
        .map(str::to_owned)
        .ok_or_else(|| "missing argument".to_owned())
}

/// The word following a (case-insensitive) keyword.
fn word_after(line: &str, keyword: &str) -> Option<String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .iter()
        .position(|w| w.eq_ignore_ascii_case(keyword))
        .and_then(|i| words.get(i + 1))
        .map(|s| s.to_string())
}

/// Parses `(a, b)` following a keyword.
fn pair_after(line: &str, keyword: &str) -> Result<(f64, f64), String> {
    let upper = line.to_ascii_uppercase();
    let kw = format!("{keyword} ");
    let pos = upper
        .find(&kw)
        .or_else(|| upper.find(&format!("{keyword}(")))
        .ok_or_else(|| format!("missing {keyword} (a, b)"))?;
    let rest = &line[pos + keyword.len()..];
    let open = rest.find('(').ok_or_else(|| format!("{keyword}: expected `(`"))?;
    let close = rest[open..]
        .find(')')
        .map(|i| open + i)
        .ok_or_else(|| format!("{keyword}: expected `)`"))?;
    let nums: Result<Vec<f64>, _> = rest[open + 1..close]
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect();
    match nums {
        Ok(v) if v.len() == 2 => Ok((v[0], v[1])),
        _ => Err(format!("{keyword}: expected two numbers")),
    }
}

/// All numbers inside the first parenthesized group.
fn numbers_in_parens(line: &str) -> Result<Vec<f64>, String> {
    let open = line.find('(').ok_or_else(|| "expected `(`".to_owned())?;
    let close = line[open..]
        .find(')')
        .map(|i| open + i)
        .ok_or_else(|| "expected `)`".to_owned())?;
    line[open + 1..close]
        .split(',')
        .map(|s| s.trim().parse::<f64>().map_err(|_| format!("bad number `{s}`")))
        .collect()
}

fn parse_cq(handle: &str) -> Result<u64, String> {
    handle
        .strip_prefix("cq")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("expected cq<id>, got `{handle}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &mut Session, line: &str) -> String {
        match s.execute(line) {
            Outcome::Text(t) => t,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    fn script(s: &mut Session, lines: &[&str]) -> String {
        lines.iter().map(|l| text(s, l)).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn create_tick_and_query() {
        let mut s = Session::new(1_000);
        script(
            &mut s,
            &[
                "CREATE car1 AT (0, 0) VEL (1, 0)",
                "SET car1.PRICE = 80",
                "REGION P RECT (90, -10, 110, 10)",
                "TICK 50",
            ],
        );
        let out = text(
            &mut s,
            "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually within 100 INSIDE(o, P)",
        );
        assert!(out.contains("1 rows"), "{out}");
        assert!(out.contains("#1"), "{out}");
        assert!(out.contains("satisfied at the current tick (50): 1"), "{out}");
    }

    #[test]
    fn continuous_lifecycle() {
        let mut s = Session::new(1_000);
        script(
            &mut s,
            &[
                "CREATE car1 AT (0, 0) VEL (1, 0)",
                "REGION P RECT (90, -10, 110, 10)",
            ],
        );
        let out = text(&mut s, "CONTINUOUS RETRIEVE o WHERE INSIDE(o, P)");
        assert!(out.contains("registered cq0"), "{out}");
        let out = text(&mut s, "SHOW cq0 AT 95");
        assert!(out.contains("1 instantiations"), "{out}");
        let out = text(&mut s, "SHOW cq0 AT 10");
        assert!(out.contains("0 instantiations"), "{out}");
        let out = text(&mut s, "CANCEL cq0");
        assert!(out.contains("cancelled"), "{out}");
        let out = text(&mut s, "SHOW cq0");
        assert!(out.starts_with("error"), "{out}");
    }

    #[test]
    fn move_drop_and_objects() {
        let mut s = Session::new(1_000);
        script(&mut s, &["CREATE a AT (0, 0) VEL (1, 0)", "TICK 10"]);
        let out = text(&mut s, "MOVE a VEL (0, 1)");
        assert!(out.contains("updated at t=10"), "{out}");
        let out = text(&mut s, "OBJECTS");
        assert!(out.contains("a (#1"), "{out}");
        assert!(out.contains("(10, 0)"), "{out}");
        let out = text(&mut s, "MOVE a AT (5, 5) VEL (0, 0)");
        assert!(!out.starts_with("error"), "{out}");
        let out = text(&mut s, "DROP a");
        assert!(out.contains("dropped"), "{out}");
        assert_eq!(text(&mut s, "OBJECTS"), "(no objects)");
    }

    #[test]
    fn nearest_and_explain() {
        let mut s = Session::new(500);
        script(
            &mut s,
            &[
                "CREATE car AT (0, 0) VEL (1, 0)",
                "CREATE h1 AT (50, 0) VEL (0, 0) CLASS hospitals",
                "CREATE h2 AT (10, 10) VEL (0, 0) CLASS hospitals",
                "REGION P RECT (40, -5, 60, 5)",
            ],
        );
        let out = text(&mut s, "NEAREST car hospitals");
        assert!(out.contains("h2"), "{out}");
        let out = text(&mut s, "EXPLAIN RETRIEVE o WHERE Eventually INSIDE(o, P)");
        assert!(out.contains("INSIDE(o, P)"), "{out}");
        assert!(out.contains("answer: 2 rows"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new(100);
        for bad in [
            "FROBNICATE",
            "CREATE",
            "CREATE x AT (1) VEL (0, 0)",
            "CREATE x AT (NaN, 0) VEL (0, 0)",
            "CREATE x AT (0, 0) VEL (1e308, 0)",
            "SET nobody.PRICE = 3",
            "MOVE ghost VEL (1, 1)",
            "SHOW cqX",
            "RETRIEVE o WHERE INSIDE(o, NOWHERE)",
            "TICK abc",
        ] {
            let out = text(&mut s, bad);
            assert!(out.starts_with("error"), "`{bad}` -> {out}");
        }
        // Session still usable afterwards.
        assert!(!text(&mut s, "NOW").starts_with("error"));
    }

    #[test]
    fn parse_errors_show_a_caret() {
        let mut s = Session::new(100);
        let out = text(&mut s, "RETRIEVE o WHERE o.PRICE <=");
        assert!(out.contains('^'), "{out}");
        assert!(out.contains("expected"), "{out}");
    }

    #[test]
    fn save_load_round_trip() {
        let path = std::env::temp_dir().join("mostql_snapshot_test.json");
        let path_s = path.to_string_lossy().to_string();
        let mut s = Session::new(1_000);
        script(
            &mut s,
            &[
                "CREATE car AT (0, 0) VEL (1, 0)",
                "SET car.PRICE = 80",
                "REGION P RECT (90, -10, 110, 10)",
                "CONTINUOUS RETRIEVE o WHERE INSIDE(o, P)",
                "TICK 50",
            ],
        );
        let out = text(&mut s, &format!("SAVE {path_s}"));
        assert!(out.contains("saved 1 objects at t=50"), "{out}");
        // A fresh session restores the full state: clock, objects, regions,
        // names and even the materialized continuous query.
        let mut s2 = Session::new(10);
        let out = text(&mut s2, &format!("LOAD {path_s}"));
        assert!(out.contains("loaded 1 objects, clock at t=50"), "{out}");
        assert_eq!(text(&mut s2, "NOW"), "t = 50");
        assert!(text(&mut s2, "OBJECTS").contains("car (#1"));
        assert!(text(&mut s2, "SHOW cq0 AT 95").contains("1 instantiations"));
        let q = "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually within 100 INSIDE(o, P)";
        assert!(text(&mut s2, q).contains("1 rows"));
        // Errors are non-fatal.
        assert!(text(&mut s2, "LOAD /nonexistent/nope.json").starts_with("error"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quit_help_comments() {
        let mut s = Session::new(100);
        assert!(matches!(s.execute("QUIT"), Outcome::Quit));
        assert!(matches!(s.execute("exit"), Outcome::Quit));
        assert!(text(&mut s, "HELP").contains("RETRIEVE"));
        assert_eq!(text(&mut s, "# a comment"), "");
        assert_eq!(text(&mut s, ""), "");
    }

    #[test]
    fn persistent_queries_in_the_shell() {
        let mut s = Session::new(100);
        script(&mut s, &["CREATE o AT (0, 0) VEL (5, 0)"]);
        let out = text(
            &mut s,
            "PERSISTENT RETRIEVE o WHERE [x <- o.VX] Eventually within 10 (o.VX >= 2 * x)",
        );
        assert!(out.contains("registered pq0"), "{out}");
        assert!(text(&mut s, "SHOW pq0").contains("0 instantiations"));
        script(&mut s, &["TICK 1", "MOVE o VEL (7, 0)", "TICK 1", "MOVE o VEL (10, 0)"]);
        let out = text(&mut s, "SHOW pq0");
        assert!(out.contains("1 instantiations"), "{out}");
        assert!(text(&mut s, "SHOW pq9").starts_with("error"));
    }

    #[test]
    fn trigger_command_arms_and_fires() {
        let mut s = Session::new(1_000);
        script(
            &mut s,
            &[
                "CREATE car AT (0, 0) VEL (1, 0)",
                "REGION P RECT (20, -5, 40, 5)",
            ],
        );
        let out = text(&mut s, "TRIGGER enterP RETRIEVE o WHERE INSIDE(o, P)");
        assert!(out.contains("armed"), "{out}");
        let out = text(&mut s, "TICK 25");
        assert!(out.contains("trigger enterP fired at t=20"), "{out}");
    }

    #[test]
    fn triggers_surface_on_tick() {
        let mut s = Session::new(1_000);
        script(
            &mut s,
            &[
                "CREATE car AT (0, 0) VEL (1, 0)",
                "REGION P RECT (20, -5, 40, 5)",
            ],
        );
        // Use the database directly to create a trigger, then TICK past the
        // entry.
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        s.db.create_trigger("enterP", q).unwrap();
        let out = text(&mut s, "TICK 25");
        assert!(out.contains("trigger enterP fired at t=20"), "{out}");
    }
}
