//! A plain-data description of a class hierarchy, convertible to and from
//! [`Chg`].
//!
//! [`ChgSpec`] exists so hierarchies can be stored, diffed, and
//! rendered as JSON by tools, without exposing the `Chg`'s internal
//! precomputed tables.

use crate::error::ChgError;
use crate::graph::{Chg, ChgBuilder, Inheritance};
use crate::members::{Access, MemberDecl, MemberKind};

/// One base-class entry of a [`ClassSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseSpecDesc {
    /// Name of the base class.
    pub name: String,
    /// Whether the inheritance is virtual.
    pub virtual_: bool,
    /// Access of the inheritance edge.
    pub access: Access,
}

/// One member entry of a [`ClassSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberSpecDesc {
    /// The member's name.
    pub name: String,
    /// The member's kind.
    pub kind: MemberKind,
    /// The member's declared access.
    pub access: Access,
}

/// One class of a [`ChgSpec`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ClassSpec {
    /// The class name.
    pub name: String,
    /// Direct bases in declaration order.
    pub bases: Vec<BaseSpecDesc>,
    /// Directly declared members in declaration order.
    pub members: Vec<MemberSpecDesc>,
}

/// A plain-data class hierarchy description.
///
/// # Examples
///
/// ```
/// use cpplookup_chg::{fixtures, spec::ChgSpec};
///
/// let original = fixtures::fig2();
/// let spec = ChgSpec::from_chg(&original);
/// let rebuilt = spec.build()?;
/// assert_eq!(rebuilt.class_count(), original.class_count());
/// assert_eq!(rebuilt.edge_count(), original.edge_count());
/// # Ok::<(), cpplookup_chg::ChgError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ChgSpec {
    /// Classes in creation order.
    pub classes: Vec<ClassSpec>,
}

impl ChgSpec {
    /// Extracts a spec from a built graph.
    pub fn from_chg(chg: &Chg) -> Self {
        let classes = chg
            .classes()
            .map(|c| ClassSpec {
                name: chg.class_name(c).to_owned(),
                bases: chg
                    .direct_bases(c)
                    .iter()
                    .map(|b| BaseSpecDesc {
                        name: chg.class_name(b.base).to_owned(),
                        virtual_: b.inheritance.is_virtual(),
                        access: b.access,
                    })
                    .collect(),
                members: chg
                    .declared_members(c)
                    .iter()
                    .map(|&(m, decl)| MemberSpecDesc {
                        name: chg.member_name(m).to_owned(),
                        kind: decl.kind,
                        access: decl.access,
                    })
                    .collect(),
            })
            .collect();
        ChgSpec { classes }
    }

    /// Builds a validated [`Chg`] from the description.
    ///
    /// # Errors
    ///
    /// Propagates any [`ChgError`] from the builder (cycles, duplicate
    /// bases, conflicting members).
    pub fn build(&self) -> Result<Chg, ChgError> {
        let mut b = ChgBuilder::new();
        for class in &self.classes {
            b.class(&class.name);
        }
        for class in &self.classes {
            let id = b.class(&class.name);
            for base in &class.bases {
                let base_id = b.class(&base.name);
                let inh = if base.virtual_ {
                    Inheritance::Virtual
                } else {
                    Inheritance::NonVirtual
                };
                b.derive_with_access(id, base_id, inh, base.access)?;
            }
            for m in &class.members {
                b.member_with(id, &m.name, MemberDecl::with_access(m.kind, m.access))?;
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn roundtrip_preserves_structure() {
        for g in [
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
        ] {
            let spec = ChgSpec::from_chg(&g);
            let rebuilt = spec.build().unwrap();
            assert_eq!(ChgSpec::from_chg(&rebuilt), spec, "spec is a fixed point");
            assert_eq!(rebuilt.class_count(), g.class_count());
            assert_eq!(rebuilt.edge_count(), g.edge_count());
            for c in g.classes() {
                let rc = rebuilt.class_by_name(g.class_name(c)).unwrap();
                assert_eq!(
                    g.direct_bases(c).len(),
                    rebuilt.direct_bases(rc).len(),
                    "base lists preserved"
                );
            }
        }
    }

    #[test]
    fn invalid_spec_reports_builder_error() {
        let spec = ChgSpec {
            classes: vec![ClassSpec {
                name: "A".into(),
                bases: vec![BaseSpecDesc {
                    name: "A".into(),
                    virtual_: false,
                    access: Access::Public,
                }],
                members: vec![],
            }],
        };
        assert!(matches!(
            spec.build(),
            Err(ChgError::SelfInheritance { .. })
        ));
    }

    #[test]
    fn forward_references_allowed() {
        // A base that is only defined later in the class list still works
        // because all names are pre-registered.
        let spec = ChgSpec {
            classes: vec![
                ClassSpec {
                    name: "Derived".into(),
                    bases: vec![BaseSpecDesc {
                        name: "Base".into(),
                        virtual_: true,
                        access: Access::Public,
                    }],
                    members: vec![],
                },
                ClassSpec {
                    name: "Base".into(),
                    bases: vec![],
                    members: vec![],
                },
            ],
        };
        let g = spec.build().unwrap();
        let base = g.class_by_name("Base").unwrap();
        let derived = g.class_by_name("Derived").unwrap();
        assert!(g.is_virtual_base_of(base, derived));
    }
}

impl ChgSpec {
    /// Renders the spec as JSON (hand-rolled writer — the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self) -> String {
        fn escape(s: &str, out: &mut String) {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut out = String::from("{\"classes\":[");
        for (i, class) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape(&class.name, &mut out);
            out.push_str(",\"bases\":[");
            for (j, base) in class.bases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                escape(&base.name, &mut out);
                out.push_str(&format!(
                    ",\"virtual\":{},\"access\":\"{}\"}}",
                    base.virtual_, base.access
                ));
            }
            out.push_str("],\"members\":[");
            for (j, m) in class.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                escape(&m.name, &mut out);
                out.push_str(&format!(
                    ",\"kind\":\"{:?}\",\"access\":\"{}\"}}",
                    m.kind, m.access
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn json_is_well_formed_and_complete() {
        let g = fixtures::fig9();
        let json = ChgSpec::from_chg(&g).to_json();
        assert!(json.starts_with("{\"classes\":["));
        assert!(json.ends_with("]}"));
        // Every class, base relation, and member shows up.
        for name in ["\"S\"", "\"A\"", "\"B\"", "\"C\"", "\"D\"", "\"E\""] {
            assert!(json.contains(name), "{json}");
        }
        assert!(json.contains("\"virtual\":true"));
        assert!(json.contains("\"kind\":\"Data\""));
        // Balanced braces/brackets (no string content interferes here).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_pathological_names() {
        let spec = ChgSpec {
            classes: vec![ClassSpec {
                name: "we\"ird\\na\tme".into(),
                bases: vec![],
                members: vec![],
            }],
        };
        let json = spec.to_json();
        assert!(json.contains("we\\\"ird\\\\na\\tme"));
    }
}
