//! Identity-based authorization: the classic GRANT/REVOKE model (§6).
//!
//! The paper keeps GRANT/REVOKE and layers content-based approval *on top*
//! ("the proposed content-based approval mechanism works with, not in
//! replacement to, existing GRANT/REVOKE mechanisms").  This module is the
//! GRANT/REVOKE half; [`crate::approval`] is the content-based half.
//! Users, memberships and grants are rows of the catalog table `$auth`,
//! so `CREATE USER`, `GRANT` and `REVOKE` are row writes, logged and
//! undone like any other; [`AuthManager`] is their view.

use std::collections::{HashMap, HashSet};

use bdbms_common::{BdbmsError, DataType, Result, Schema, Value};

use crate::ast::Privilege;
use crate::catalog::CatalogView;

/// The built-in superuser.
pub const ADMIN: &str = "admin";

/// Users, groups, and table privileges: the view of the `$auth` catalog
/// table, which holds one fact per row (see [`row`](Self::row)).  The
/// built-in `admin` has no row.
#[derive(PartialEq)]
pub struct AuthManager {
    /// user → groups.
    users: HashMap<String, Vec<String>>,
    /// (grantee lowercased, table lowercased) → privileges.  The grantee
    /// may be a user or a group name.
    grants: HashMap<(String, String), HashSet<Privilege>>,
}

impl AuthManager {
    /// A fresh manager with only the `admin` superuser.
    pub fn new() -> Self {
        let mut users = HashMap::new();
        users.insert(ADMIN.to_string(), Vec::new());
        AuthManager {
            users,
            grants: HashMap::new(),
        }
    }

    fn key(s: &str) -> String {
        s.to_ascii_lowercase()
    }

    /// The columns of `$auth`.  Column 0 names the table a grant is on,
    /// as in `$approval`, so `DROP TABLE` clears both alike.
    pub(crate) fn schema() -> Schema {
        let text = ["on_table", "principal", "member_of", "privilege"];
        Schema::of(&text.map(|c| (c, DataType::Text)))
    }

    /// The `$auth` row of one fact, names lowercased: user `principal`
    /// exists (`table`, `group` and `privilege` NULL), is a member of
    /// `group`, or holds `privilege` on `table`.
    pub(crate) fn row(
        table: Option<&str>,
        principal: &str,
        group: Option<&str>,
        privilege: Option<Privilege>,
    ) -> Vec<Value> {
        let name = |s: Option<&str>| s.map_or(Value::Null, |s| Value::Text(Self::key(s)));
        let privilege = privilege.map_or(Value::Null, |p| Value::Text(p.to_string()));
        vec![name(table), name(Some(principal)), name(group), privilege]
    }

    /// Does the user exist?
    pub fn user_exists(&self, name: &str) -> bool {
        self.users.contains_key(&Self::key(name))
    }

    /// Error (`NotFound`) unless `name` is a user, or a group with a
    /// member: a grant to anyone else could reach no one.
    pub(crate) fn require_principal(&self, name: &str) -> Result<()> {
        let key = Self::key(name);
        if self.users.contains_key(&key) || self.users.values().any(|g| g.contains(&key)) {
            Ok(())
        } else {
            Err(BdbmsError::not_found(format!("user or group `{name}`")))
        }
    }

    /// Groups of a user.
    pub fn groups_of(&self, user: &str) -> &[String] {
        self.users
            .get(&Self::key(user))
            .map(|g| g.as_slice())
            .unwrap_or(&[])
    }

    /// Is `user` the named principal, or a member of it (group)?
    pub fn acts_as(&self, user: &str, principal: &str) -> bool {
        let u = Self::key(user);
        let p = Self::key(principal);
        u == p || self.groups_of(user).contains(&p)
    }

    /// Was `privilege` on `table` granted to `grantee` itself?
    pub(crate) fn granted(&self, grantee: &str, table: &str, privilege: Privilege) -> bool {
        self.grants
            .get(&(Self::key(grantee), Self::key(table)))
            .is_some_and(|s| s.contains(&privilege))
    }

    /// Does `user` hold `privilege` on `table` (directly, via a group, or
    /// as admin)?  Ownership is checked by the caller, which knows the
    /// table's owner.
    pub fn has_privilege(&self, user: &str, table: &str, privilege: Privilege) -> bool {
        Self::key(user) == ADMIN
            || self.granted(user, table, privilege)
            || (self.groups_of(user).iter()).any(|g| self.granted(g, table, privilege))
    }

    /// Error unless the privilege is held (owner always passes).
    pub fn check(&self, user: &str, table: &str, owner: &str, privilege: Privilege) -> Result<()> {
        if Self::key(user) == Self::key(owner) || self.has_privilege(user, table, privilege) {
            Ok(())
        } else {
            Err(BdbmsError::unauthorized(format!(
                "user `{user}` lacks {privilege} on `{table}`"
            )))
        }
    }
}

impl CatalogView for AuthManager {
    fn apply(&mut self, _: u64, row: &[Value], added: bool) {
        let text = |col: usize| row[col].as_text();
        match (
            text(0),
            text(1),
            text(2),
            text(3).and_then(Privilege::parse),
        ) {
            (None, Some(user), None, None) if added => {
                self.users.insert(user.to_string(), Vec::new());
            }
            (None, Some(user), None, None) => {
                self.users.remove(user);
            }
            (None, Some(user), Some(group), None) => {
                let Some(groups) = self.users.get_mut(user) else {
                    return;
                };
                if added {
                    groups.push(group.to_string());
                } else if let Some(at) = groups.iter().position(|g| g == group) {
                    groups.remove(at);
                }
            }
            (Some(table), Some(grantee), None, Some(p)) => {
                let key = (grantee.to_string(), table.to_string());
                let held = self.grants.entry(key.clone()).or_default();
                if added {
                    held.insert(p);
                } else {
                    held.remove(&p);
                }
                if held.is_empty() {
                    self.grants.remove(&key);
                }
            }
            _ => {}
        }
    }
}

impl Default for AuthManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manager holding `rows`.
    fn with_rows(rows: &[Vec<Value>]) -> AuthManager {
        let mut a = AuthManager::new();
        for (no, row) in rows.iter().enumerate() {
            a.apply(no as u64, row, true);
        }
        a
    }

    fn grant(table: &str, grantee: &str, p: Privilege) -> Vec<Value> {
        AuthManager::row(Some(table), grantee, None, Some(p))
    }

    #[test]
    fn admin_has_everything() {
        let a = AuthManager::new();
        assert!(a.has_privilege("admin", "Gene", Privilege::Delete));
        assert!(a
            .check("admin", "Gene", "someone", Privilege::Update)
            .is_ok());
    }

    #[test]
    fn grant_and_revoke() {
        let alice = AuthManager::row(None, "alice", None, None);
        let mut a = with_rows(&[alice]);
        assert!(!a.has_privilege("alice", "Gene", Privilege::Select));
        let update = grant("Gene", "alice", Privilege::Update);
        a.apply(1, &grant("Gene", "Alice", Privilege::Select), true);
        a.apply(2, &update, true);
        assert!(a.has_privilege("alice", "gene", Privilege::Select));
        assert!(a.has_privilege("alice", "GENE", Privilege::Update));
        assert!(!a.has_privilege("alice", "Gene", Privilege::Delete));
        a.apply(2, &update, false);
        assert!(!a.has_privilege("alice", "Gene", Privilege::Update));
        assert!(a.has_privilege("alice", "Gene", Privilege::Select));
    }

    #[test]
    fn group_privileges() {
        let a = with_rows(&[
            AuthManager::row(None, "bob", None, None),
            AuthManager::row(None, "bob", Some("lab1"), None),
            grant("Gene", "lab1", Privilege::Insert),
        ]);
        assert!(a.has_privilege("bob", "Gene", Privilege::Insert));
        assert!(!a.has_privilege("bob", "Gene", Privilege::Delete));
    }

    #[test]
    fn acts_as_user_or_group() {
        let a = with_rows(&[
            AuthManager::row(None, "carol", None, None),
            AuthManager::row(None, "carol", Some("curators"), None),
        ]);
        assert!(a.acts_as("carol", "carol"));
        assert!(a.acts_as("carol", "Curators"));
        assert!(!a.acts_as("carol", "lab1"));
    }

    #[test]
    fn owner_bypasses_grants() {
        let a = AuthManager::new();
        assert!(a.check("dave", "Gene", "dave", Privilege::Delete).is_ok());
        assert!(a.check("dave", "Gene", "erin", Privilege::Delete).is_err());
    }

    #[test]
    fn duplicate_user_rejected() {
        let mut db = crate::Database::new_in_memory();
        db.execute("CREATE USER x").unwrap();
        let err = db.execute("CREATE USER X").unwrap_err();
        assert_eq!(err.code(), bdbms_common::ErrorCode::AlreadyExists);
        assert_eq!(
            db.execute("CREATE USER admin").unwrap_err().code(),
            err.code()
        );
    }

    /// Taking every row out again leaves the view a fresh one.
    #[test]
    fn removing_each_row_restores_the_fresh_view() {
        let rows = [
            AuthManager::row(None, "bob", None, None),
            AuthManager::row(None, "bob", Some("lab1"), None),
            grant("Gene", "lab1", Privilege::Insert),
            grant("Gene", "lab1", Privilege::Select),
        ];
        let mut a = with_rows(&rows);
        for (no, row) in rows.iter().enumerate().rev() {
            a.apply(no as u64, row, false);
        }
        assert!(a == AuthManager::new());
    }
}
