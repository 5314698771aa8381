//! Links and link sets (Section 2.1).
//!
//! A link `l_v = (s_v, r_v)` is an ordered sender/receiver pair of nodes in
//! a decay space. The *link decay* `f_vv = f(s_v, r_v)` plays the role the
//! link length plays in geometric SINR; the total order `≺` on links sorts
//! by non-decreasing link decay.

use std::fmt;

use decay_core::{DecaySpace, NodeId};

use crate::error::SinrError;

/// Identifier of a link within a link set (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(usize);

impl LinkId {
    /// Creates a link id from a raw index.
    pub const fn new(index: usize) -> Self {
        LinkId(index)
    }

    /// The raw index of this link.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<usize> for LinkId {
    fn from(index: usize) -> Self {
        LinkId(index)
    }
}

/// A communication link: sender and receiver nodes in a decay space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// The sending node `s_v`.
    pub sender: NodeId,
    /// The receiving node `r_v`.
    pub receiver: NodeId,
}

impl Link {
    /// Creates a link from sender to receiver.
    pub const fn new(sender: NodeId, receiver: NodeId) -> Self {
        Link { sender, receiver }
    }

    /// The link decay `f_vv = f(s_v, r_v)` — the "length" of the link in
    /// decay terms.
    pub fn decay(&self, space: &DecaySpace) -> f64 {
        space.decay(self.sender, self.receiver)
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.sender, self.receiver)
    }
}

/// An ordered collection of links over one decay space.
///
/// Construction validates that all endpoints are in range and that no link
/// is a self-loop (a self-loop has decay zero, i.e. infinite signal, which
/// the model excludes).
///
/// # Examples
///
/// ```
/// use decay_core::{DecaySpace, NodeId};
/// use decay_sinr::{Link, LinkSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = DecaySpace::from_fn(4, |i, j| {
///     ((i as f64) - (j as f64)).abs().powi(2)
/// })?;
/// let links = LinkSet::new(&space, vec![
///     Link::new(NodeId::new(0), NodeId::new(1)),
///     Link::new(NodeId::new(2), NodeId::new(3)),
/// ])?;
/// assert_eq!(links.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSet {
    links: Vec<Link>,
}

impl LinkSet {
    /// Creates a validated link set over the given space.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range for the space, or
    /// if any link is a self-loop.
    pub fn new(space: &DecaySpace, links: Vec<Link>) -> Result<Self, SinrError> {
        for (i, l) in links.iter().enumerate() {
            if l.sender.index() >= space.len() || l.receiver.index() >= space.len() {
                return Err(SinrError::EndpointOutOfRange {
                    link: i,
                    nodes: space.len(),
                });
            }
            if l.sender == l.receiver {
                return Err(SinrError::SelfLoop { link: i });
            }
        }
        Ok(LinkSet { links })
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the set has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// Iterator over `(id, link)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &l)| (LinkId::new(i), l))
    }

    /// All link ids.
    pub fn ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId::new)
    }

    /// The link decay `f_vv` of the given link.
    pub fn decay_of(&self, space: &DecaySpace, id: LinkId) -> f64 {
        self.link(id).decay(space)
    }

    /// Link ids sorted by non-decreasing link decay — the total order `≺`
    /// of Section 2.4 (ties broken by id for determinism).
    pub fn ids_by_decay(&self, space: &DecaySpace) -> Vec<LinkId> {
        let mut ids: Vec<LinkId> = self.ids().collect();
        ids.sort_by(|&a, &b| {
            self.decay_of(space, a)
                .partial_cmp(&self.decay_of(space, b))
                .unwrap()
                .then(a.index().cmp(&b.index()))
        });
        ids
    }

    /// View of the underlying links.
    pub fn as_slice(&self) -> &[Link] {
        &self.links
    }
}

impl fmt::Display for LinkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LinkSet({} links)", self.links.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> DecaySpace {
        DecaySpace::from_fn(5, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).unwrap()
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let s = space();
        let err = LinkSet::new(&s, vec![Link::new(NodeId::new(0), NodeId::new(9))]).unwrap_err();
        assert!(matches!(err, SinrError::EndpointOutOfRange { link: 0, .. }));
    }

    #[test]
    fn rejects_self_loops() {
        let s = space();
        let err = LinkSet::new(&s, vec![Link::new(NodeId::new(2), NodeId::new(2))]).unwrap_err();
        assert!(matches!(err, SinrError::SelfLoop { link: 0 }));
    }

    #[test]
    fn decay_is_sender_to_receiver() {
        let s = space();
        let ls = LinkSet::new(&s, vec![Link::new(NodeId::new(0), NodeId::new(3))]).unwrap();
        assert_eq!(ls.decay_of(&s, LinkId::new(0)), 9.0);
    }

    #[test]
    fn order_by_decay() {
        let s = space();
        let ls = LinkSet::new(
            &s,
            vec![
                Link::new(NodeId::new(0), NodeId::new(4)), // decay 16
                Link::new(NodeId::new(0), NodeId::new(1)), // decay 1
                Link::new(NodeId::new(1), NodeId::new(3)), // decay 4
            ],
        )
        .unwrap();
        let order = ls.ids_by_decay(&s);
        assert_eq!(order, vec![LinkId::new(1), LinkId::new(2), LinkId::new(0)]);
    }

    #[test]
    fn display_formats() {
        let l = Link::new(NodeId::new(0), NodeId::new(1));
        assert_eq!(format!("{l}"), "(v0 -> v1)");
        assert_eq!(format!("{}", LinkId::new(2)), "l2");
    }

    #[test]
    fn iteration() {
        let s = space();
        let ls = LinkSet::new(
            &s,
            vec![
                Link::new(NodeId::new(0), NodeId::new(1)),
                Link::new(NodeId::new(2), NodeId::new(3)),
            ],
        )
        .unwrap();
        assert_eq!(ls.iter().count(), 2);
        assert_eq!(ls.ids().count(), 2);
        assert!(!ls.is_empty());
    }
}
