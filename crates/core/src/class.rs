//! Object classes: "a database is a set of object-classes ... an
//! object-class is a set of attributes" (Section 2).

/// The kind of an attribute (Section 2.1: "each attribute of an
/// object-class is either static or dynamic").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// Changes only on explicit update.
    Static,
    /// Changes continuously per its function sub-attribute.
    Dynamic,
}

/// A declared attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: String,
    /// Static or dynamic.
    pub kind: AttrKind,
}

/// An object-class definition.
///
/// Spatial classes implicitly carry the dynamic position attributes
/// (`X.POSITION`, `Y.POSITION` — exposed to FTL as `X` / `Y`, with the
/// motion-vector sub-attributes `VX` / `VY` / `SPEED`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Whether the class is spatial (has positions).
    pub spatial: bool,
    /// Declared attributes.  An empty list means the class is open: any
    /// attribute may be set (schema-on-write is optional, mirroring how the
    /// paper leaves class definitions abstract).
    pub attrs: Vec<AttrDecl>,
}

impl ClassDef {
    /// An open spatial class (any attributes allowed).
    pub fn spatial(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            spatial: true,
            attrs: Vec::new(),
        }
    }

    /// An open non-spatial class.
    pub fn plain(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            spatial: false,
            attrs: Vec::new(),
        }
    }

    /// Declares a static attribute.
    pub fn with_static(mut self, name: impl Into<String>) -> Self {
        self.attrs.push(AttrDecl {
            name: name.into(),
            kind: AttrKind::Static,
        });
        self
    }

    /// Declares a dynamic scalar attribute.
    pub fn with_dynamic(mut self, name: impl Into<String>) -> Self {
        self.attrs.push(AttrDecl {
            name: name.into(),
            kind: AttrKind::Dynamic,
        });
        self
    }

    /// Whether the class is open (no declared attribute list).
    pub fn is_open(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Looks up a declared attribute.
    pub fn attr(&self, name: &str) -> Option<&AttrDecl> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Whether setting `name` with kind `kind` is admissible.
    pub fn admits(&self, name: &str, kind: AttrKind) -> bool {
        if self.is_open() {
            return true;
        }
        self.attr(name).is_some_and(|a| a.kind == kind)
    }
}

most_testkit::json_enum!(AttrKind { Static, Dynamic });
most_testkit::json_struct!(AttrDecl { name, kind });
most_testkit::json_struct!(ClassDef {
    name,
    spatial,
    attrs
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_class_admits_anything() {
        let c = ClassDef::spatial("cars");
        assert!(c.is_open());
        assert!(c.admits("PRICE", AttrKind::Static));
        assert!(c.admits("FUEL", AttrKind::Dynamic));
        assert!(c.spatial);
    }

    #[test]
    fn declared_class_checks_kinds() {
        let c = ClassDef::plain("motels")
            .with_static("PRICE")
            .with_dynamic("OCCUPANCY");
        assert!(!c.is_open());
        assert!(c.admits("PRICE", AttrKind::Static));
        assert!(!c.admits("PRICE", AttrKind::Dynamic));
        assert!(c.admits("OCCUPANCY", AttrKind::Dynamic));
        assert!(!c.admits("NOPE", AttrKind::Static));
        assert_eq!(c.attr("PRICE").unwrap().kind, AttrKind::Static);
        assert!(!c.spatial);
    }
}
