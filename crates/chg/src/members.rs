//! Member declarations: kinds, staticness, and access levels.
//!
//! The paper (Section 6) distinguishes *static* and *non-static* members
//! because the relaxed dominance rule of Definition 17 applies only to
//! static members, and notes that nested type names and enumeration
//! constants "are treated exactly like static members" for lookup. Access
//! rights "do not affect the member lookup process in any way; they are
//! applied only after a successful member lookup".

use std::fmt;

/// The kind of entity a member declaration introduces.
///
/// Only [`is_static_for_lookup`](MemberKind::is_static_for_lookup) matters
/// to the lookup algorithm itself; the finer distinctions exist so the
/// frontend can model real C++ declarations and so diagnostics can describe
/// what was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MemberKind {
    /// A non-static data member, e.g. `int m;`.
    #[default]
    Data,
    /// A non-static member function, e.g. `void m();`.
    Function,
    /// A static data member, e.g. `static int m;`.
    StaticData,
    /// A static member function, e.g. `static void m();`.
    StaticFunction,
    /// A nested type name, e.g. `typedef int m;` or `using m = int;` or a
    /// nested `class m`.
    TypeName,
    /// An enumeration constant introduced into the class scope, e.g. the
    /// `m` of `enum { m };`.
    Enumerator,
}

impl MemberKind {
    /// Whether the relaxed static-member dominance rule (paper
    /// Definition 17 / the third clause of the modified `dominates`)
    /// applies to this member.
    ///
    /// Per Section 6, type names and enumeration constants are treated
    /// exactly like static members.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::MemberKind;
    ///
    /// assert!(MemberKind::StaticData.is_static_for_lookup());
    /// assert!(MemberKind::Enumerator.is_static_for_lookup());
    /// assert!(!MemberKind::Function.is_static_for_lookup());
    /// ```
    pub fn is_static_for_lookup(self) -> bool {
        matches!(
            self,
            MemberKind::StaticData
                | MemberKind::StaticFunction
                | MemberKind::TypeName
                | MemberKind::Enumerator
        )
    }

    /// Whether this kind denotes a callable member function.
    pub fn is_function(self) -> bool {
        matches!(self, MemberKind::Function | MemberKind::StaticFunction)
    }
}

impl fmt::Display for MemberKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemberKind::Data => "data member",
            MemberKind::Function => "member function",
            MemberKind::StaticData => "static data member",
            MemberKind::StaticFunction => "static member function",
            MemberKind::TypeName => "nested type name",
            MemberKind::Enumerator => "enumerator",
        };
        f.write_str(s)
    }
}

/// A C++ access level, for members and for inheritance edges.
///
/// Ordered from most to least restrictive: `Private < Protected < Public`,
/// so `a.min(b)` is "the more restrictive of the two", which is how access
/// composes along an inheritance path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Access {
    /// Accessible only within the declaring class (and friends, which we do
    /// not model).
    Private,
    /// Accessible within the declaring class and its derived classes.
    Protected,
    /// Accessible everywhere.
    #[default]
    Public,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Access::Private => "private",
            Access::Protected => "protected",
            Access::Public => "public",
        };
        f.write_str(s)
    }
}

/// A member declaration attached to a class: its kind and declared access.
///
/// The declaration is identified by the pair `(ClassId, MemberId)`; this
/// struct carries everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct MemberDecl {
    /// What kind of member this is.
    pub kind: MemberKind,
    /// The access level it was declared with.
    pub access: Access,
    /// For members introduced by a using-declaration
    /// (`using Base::m;`): the base class the name was taken from. For
    /// the lookup algorithm the member counts as declared *here* (that is
    /// precisely how using-declarations resolve ambiguities in C++), but
    /// clients binding to the declaration may want the origin.
    pub via_using: Option<crate::ids::ClassId>,
}

impl MemberDecl {
    /// A public declaration of the given kind.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::{Access, MemberDecl, MemberKind};
    ///
    /// let d = MemberDecl::public(MemberKind::StaticData);
    /// assert_eq!(d.access, Access::Public);
    /// assert!(d.kind.is_static_for_lookup());
    /// ```
    pub fn public(kind: MemberKind) -> Self {
        MemberDecl {
            kind,
            access: Access::Public,
            via_using: None,
        }
    }

    /// A declaration with an explicit access level.
    pub fn with_access(kind: MemberKind, access: Access) -> Self {
        MemberDecl {
            kind,
            access,
            via_using: None,
        }
    }

    /// A member introduced by a using-declaration (`using Base::m;`):
    /// behaves as a declaration in the using class for lookup, but
    /// remembers where it came from.
    pub fn using_from(kind: MemberKind, access: Access, origin: crate::ids::ClassId) -> Self {
        MemberDecl {
            kind,
            access,
            via_using: Some(origin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staticness_classification() {
        assert!(!MemberKind::Data.is_static_for_lookup());
        assert!(!MemberKind::Function.is_static_for_lookup());
        assert!(MemberKind::StaticData.is_static_for_lookup());
        assert!(MemberKind::StaticFunction.is_static_for_lookup());
        assert!(MemberKind::TypeName.is_static_for_lookup());
        assert!(MemberKind::Enumerator.is_static_for_lookup());
    }

    #[test]
    fn function_classification() {
        assert!(MemberKind::Function.is_function());
        assert!(MemberKind::StaticFunction.is_function());
        assert!(!MemberKind::Data.is_function());
        assert!(!MemberKind::TypeName.is_function());
    }

    #[test]
    fn access_order_is_restrictiveness() {
        assert!(Access::Private < Access::Protected);
        assert!(Access::Protected < Access::Public);
        // min = more restrictive, the composition along an edge.
        assert_eq!(Access::Public.min(Access::Private), Access::Private);
        assert_eq!(Access::Protected.min(Access::Public), Access::Protected);
    }

    #[test]
    fn defaults_match_cpp_struct_conventions() {
        // `struct` members default to public data in our frontend.
        let d = MemberDecl::default();
        assert_eq!(d.kind, MemberKind::Data);
        assert_eq!(d.access, Access::Public);
    }

    #[test]
    fn display_strings() {
        assert_eq!(MemberKind::Enumerator.to_string(), "enumerator");
        assert_eq!(Access::Protected.to_string(), "protected");
        assert_eq!(
            MemberKind::StaticFunction.to_string(),
            "static member function"
        );
    }
}
