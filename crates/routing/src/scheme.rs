//! The routing-scheme abstraction.
//!
//! A scheme is **bit-honest**: what it stores is one [`Tables`] — a real
//! bit string per node (the encoded local routing function `F(u)`), the
//! labelling and the port assignment — plus the few extras its
//! construction keeps (a model, a variant, a prefix length). The
//! only way to route is [`RoutingScheme::route_at`], which reads node
//! `u`'s string straight from the scheme and runs it against the model's
//! free information ([`NodeEnv`]), allocating nothing. The size the paper
//! charges — [`RoutingScheme::total_size_bits`] — is the sum of those bit
//! strings, plus label bits in model γ. Nothing can hide outside the
//! accounting: verification ([`crate::verify`]) routes from the stored
//! bits alone.
//!
//! [`LocalRouter`] is the shape of one node's router as a value, for code
//! that passes a router around: the hop step ([`crate::hop::hop`]) takes
//! one, and [`RoutingScheme::decode_router`] boxes one. Its one library
//! implementor is [`NodeRouter`], a scheme and a node id whose `route` is
//! `route_at`.

use std::error::Error;
use std::fmt;

use ort_bitio::{BitVec, CodeError};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::ports::PortAssignment;
use ort_graphs::{GraphError, NodeId};

use crate::model::Model;

/// Error produced by scheme construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemeError {
    /// The graph violates a precondition of the construction (the theorems
    /// assume Kolmogorov-random graphs; constructors verify the properties
    /// they actually use, e.g. diameter 2 or the Lemma 3 prefix cover).
    Precondition {
        /// What was required.
        reason: String,
    },
    /// The graph must be connected for shortest-path routing to exist.
    Disconnected,
    /// A bit-level decoding failure.
    Code(CodeError),
    /// A graph-level failure.
    Graph(GraphError),
    /// A node id was out of range.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
    },
    /// An approximate distance oracle was supplied where exact shortest-
    /// path distances are required (scheme construction and stretch
    /// verification both compare against true distances). Carries the
    /// rejected oracle's self-description
    /// ([`ort_graphs::oracle::Distances::describe`]).
    ApproximateOracle {
        /// The rejected oracle's name.
        oracle: &'static str,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::Precondition { reason } => write!(f, "scheme precondition: {reason}"),
            SchemeError::Disconnected => write!(f, "graph is disconnected"),
            SchemeError::Code(e) => write!(f, "decoding error: {e}"),
            SchemeError::Graph(e) => write!(f, "graph error: {e}"),
            SchemeError::NodeOutOfRange { node } => write!(f, "node {node} out of range"),
            SchemeError::ApproximateOracle { oracle } => {
                write!(f, "{oracle} is approximate: exact shortest-path distances are required")
            }
        }
    }
}

impl Error for SchemeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchemeError::Code(e) => Some(e),
            SchemeError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for SchemeError {
    fn from(e: CodeError) -> Self {
        SchemeError::Code(e)
    }
}

impl From<GraphError> for SchemeError {
    fn from(e: GraphError) -> Self {
        SchemeError::Graph(e)
    }
}

/// Error produced while routing a single message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The router has no entry for this destination.
    UnknownDestination,
    /// The router emitted a port that does not exist at this node.
    PortOutOfRange {
        /// The emitted port.
        port: usize,
        /// The node's degree.
        degree: usize,
    },
    /// The router needed information its model does not provide.
    MissingInformation {
        /// What was missing.
        what: &'static str,
    },
    /// Decoding the stored bits failed mid-route.
    Code(CodeError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownDestination => write!(f, "no routing entry for destination"),
            RouteError::PortOutOfRange { port, degree } => {
                write!(f, "port {port} out of range for degree {degree}")
            }
            RouteError::MissingInformation { what } => write!(f, "missing information: {what}"),
            RouteError::Code(e) => write!(f, "decoding error: {e}"),
        }
    }
}

impl Error for RouteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RouteError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for RouteError {
    fn from(e: CodeError) -> Self {
        RouteError::Code(e)
    }
}

/// The one reading of a router that would not decode, for code that
/// routes: a bit-level failure stays a [`RouteError::Code`], and anything
/// else leaves the node without a usable router.
impl From<SchemeError> for RouteError {
    fn from(e: SchemeError) -> Self {
        match e {
            SchemeError::Code(c) => RouteError::Code(c),
            _ => RouteError::MissingInformation { what: "router undecodable" },
        }
    }
}

/// The free information available to a node's router, as fixed by the
/// model (Section 1's "minimal local knowledge").
///
/// A view, not a copy: the labels it shows are read in place from the
/// scheme's [`Labeling`] and [`PortAssignment`], so building one
/// allocates nothing, whatever the node's degree.
#[derive(Debug, Clone, Copy)]
pub struct NodeEnv<'a> {
    /// Number of nodes in the network ("given n", as in all the paper's
    /// constructions).
    pub n: usize,
    /// This node's own label.
    pub label: LabelRef<'a>,
    /// Number of ports (= degree).
    pub degree: usize,
    /// In model II only: the label of the neighbour behind each port.
    /// `None` in models IA/IB.
    pub neighbor_labels: Option<NeighborLabels<'a>>,
}

impl<'a> NodeEnv<'a> {
    /// The model-II neighbour labels.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::MissingInformation`] outside model II.
    pub fn require_neighbor_labels(&self) -> Result<NeighborLabels<'a>, RouteError> {
        self.neighbor_labels
            .ok_or(RouteError::MissingInformation { what: "neighbour labels (model II)" })
    }

    /// The neighbours' minimal labels in ascending order — under the
    /// sorted port assignment the schemes of model II ∧ α use, entry `i`
    /// is the label behind port `i`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::MissingInformation`] outside model II or if
    /// a neighbour's label is not minimal.
    pub fn sorted_minimal_neighbors(&self) -> Result<Vec<NodeId>, RouteError> {
        let labels = self.require_neighbor_labels()?;
        let mut ids = Vec::with_capacity(self.degree);
        for l in labels.iter() {
            let LabelRef::Minimal(v) = l else {
                return Err(RouteError::MissingInformation { what: "minimal neighbour labels" });
            };
            ids.push(v);
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

/// A node's neighbour labels in port order (model II), read in place:
/// entry `p` is the label of the neighbour behind port `p`.
#[derive(Debug, Clone, Copy)]
pub struct NeighborLabels<'a> {
    labeling: &'a Labeling,
    ports: &'a PortAssignment,
    u: NodeId,
}

impl<'a> NeighborLabels<'a> {
    /// The labels, under `labeling`, of node `u`'s neighbours in the port
    /// order `ports` gives it ([`PortAssignment::order`]). Nothing is
    /// checked here: the view is built on every hop.
    #[must_use]
    pub fn new(labeling: &'a Labeling, ports: &'a PortAssignment, u: NodeId) -> Self {
        NeighborLabels { labeling, ports, u }
    }

    /// The labels in port order.
    ///
    /// # Panics
    ///
    /// Panics if the view's node is out of range for its ports.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LabelRef<'a>> + 'a {
        let labeling = self.labeling;
        self.ports.order(self.u).iter().map(move |&v| labeling.label_ref(v))
    }

    /// The port whose neighbour carries `label`, if any.
    #[must_use]
    pub fn port_of(&self, label: &Label) -> Option<usize> {
        // Every `Labeling` constructor rejects duplicate labels, so at
        // most one node carries `label`. The labelling names it, which
        // finds the port a scan comparing every neighbour's label would
        // find, without reading any of them; sorted ports find it by rank.
        self.ports.port_to(self.u, self.labeling.node_of(label)?)
    }
}

/// A router's verdict for one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteDecision {
    /// This node is the destination.
    Deliver,
    /// Forward over the given port.
    Forward(usize),
    /// Forward over any of the given ports — all lie on shortest paths
    /// (full-information schemes; enables failover when a link is down).
    ForwardAny(Vec<usize>),
}

impl RouteDecision {
    /// The port a fault-free executor takes: the forward port, or the
    /// first advertised alternative. `None` for [`RouteDecision::Deliver`]
    /// or an empty alternative list.
    #[must_use]
    pub fn primary_port(&self) -> Option<usize> {
        match self {
            RouteDecision::Deliver => None,
            RouteDecision::Forward(p) => Some(*p),
            RouteDecision::ForwardAny(ports) => ports.first().copied(),
        }
    }
}

/// Message scratch state carried in the header.
///
/// The paper's model lets messages carry their destination; the Theorem 5
/// probe scheme additionally needs the message to remember its *source*
/// and a probe counter ("otherwise it is returned to the starting node for
/// trying the next node"). `MessageState` is that header: O(log n) bits of
/// message overhead, never charged to table space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageState {
    /// Label of the originating node, set by the source on first hop.
    pub source: Option<Label>,
    /// Probe counter for scan-style schemes.
    pub counter: u64,
}

/// One node's local routing function as a value.
///
/// A router may use **only** its node's stored bits and the [`NodeEnv`] —
/// that is the whole point of the space accounting. Schemes route through
/// [`RoutingScheme::route_at`]; [`NodeRouter`] carries that entry as a
/// `LocalRouter` for the hop step and [`RoutingScheme::decode_router`].
pub trait LocalRouter {
    /// Decides what to do with a message for `dest` currently at this node.
    ///
    /// # Errors
    ///
    /// Returns a [`RouteError`] if the destination is unknown or the stored
    /// bits are inconsistent with the environment.
    fn route(
        &self,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError>;
}

/// What a scheme stores, in the paper's accounting: per node, the bit
/// string of its local routing function; the labelling in force; and the
/// port assignment in force. Every [`RoutingScheme`] holds one and lends
/// it through [`RoutingScheme::tables`]; the provided accessors
/// ([`RoutingScheme::node_bits`], [`RoutingScheme::labeling`], …) read it.
#[derive(Debug, Clone)]
pub struct Tables {
    /// The encoded local routing function of every node — entry `u` is
    /// the string whose length the paper counts as `|F(u)|`. A scheme
    /// whose routing function is generic stores `n` empty strings.
    pub(crate) bits: Vec<BitVec>,
    /// The labelling (identity for α, a permutation for β, arbitrary
    /// charged labels for γ).
    pub(crate) labeling: Labeling,
    /// The port assignment.
    pub(crate) ports: PortAssignment,
}

impl Tables {
    /// Node `u`'s stored bits: the one node range check of every route
    /// entry, an out-of-range `u` reading as
    /// [`SchemeError::NodeOutOfRange`].
    pub(crate) fn node(&self, u: NodeId) -> Result<&BitVec, SchemeError> {
        self.bits.get(u).ok_or(SchemeError::NodeOutOfRange { node: u })
    }
}

/// Node `u`'s router in `scheme`, as a value: its [`LocalRouter::route`]
/// is [`RoutingScheme::route_at`] at `u`. A reference and a node id, so a
/// walker builds one on the stack for every hop.
pub struct NodeRouter<'a, S: RoutingScheme + ?Sized> {
    /// The scheme whose router runs.
    pub scheme: &'a S,
    /// The node it runs at.
    pub u: NodeId,
}

impl<S: RoutingScheme + ?Sized> LocalRouter for NodeRouter<'_, S> {
    fn route(
        &self,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        self.scheme.route_at(self.u, env, dest, state)
    }
}

/// A complete routing scheme for one graph: per-node encoded routing
/// functions, the labelling, and the port assignment ([`Tables`]), with
/// honest size accounting.
///
/// A scheme implements three methods — [`RoutingScheme::model`],
/// [`RoutingScheme::tables`] and [`RoutingScheme::route_at`] — and every
/// accessor and size is provided over its tables.
///
/// `Send + Sync` is a supertrait so the verifier can fan its pair loop out
/// across threads against one `&dyn RoutingScheme`. Schemes are plain
/// decoded data (bit tables, labellings, port maps), so every
/// implementation satisfies this automatically.
pub trait RoutingScheme: Send + Sync {
    /// The model this scheme instance is valid in.
    fn model(&self) -> Model;

    /// What the scheme stores: every node's bits, the labelling and the
    /// port assignment.
    fn tables(&self) -> &Tables;

    /// Runs node `u`'s router on a message for `dest` at `u`, reading
    /// `u`'s stored bits and `env`, the free information the model grants
    /// `u` ([`RoutingScheme::node_env`]). The one route entry every walker
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns the router's [`RouteError`], or the reading of a router
    /// that would not decode (`RouteError::from(SchemeError)`) if `u` is
    /// out of range.
    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError>;

    /// Number of nodes covered.
    fn node_count(&self) -> usize {
        self.tables().bits.len()
    }

    /// The encoded local routing function of node `u` — the string whose
    /// length the paper counts as `|F(u)|`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    fn node_bits(&self, u: NodeId) -> &BitVec {
        &self.tables().bits[u]
    }

    /// The labelling in force (identity for α, a permutation for β,
    /// arbitrary charged labels for γ).
    fn labeling(&self) -> &Labeling {
        &self.tables().labeling
    }

    /// The port assignment in force.
    fn port_assignment(&self) -> &PortAssignment {
        &self.tables().ports
    }

    /// Node `u`'s router as a boxed [`LocalRouter`], a [`NodeRouter`]
    /// that routes through [`RoutingScheme::route_at`]. The box is the
    /// only allocation; walkers put a [`NodeRouter`] on the stack instead.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::NodeOutOfRange`] if `u` is out of range.
    fn decode_router(&self, u: NodeId) -> Result<Box<dyn LocalRouter + '_>, SchemeError> {
        self.tables().node(u)?;
        Ok(Box::new(NodeRouter { scheme: self, u }))
    }

    /// Bits of routing function stored at node `u`.
    fn node_size_bits(&self, u: NodeId) -> usize {
        self.node_bits(u).len()
    }

    /// Of [`RoutingScheme::node_size_bits`], how many bits encode the
    /// node's port permutation (Theorem 8's unavoidable `⌈log d!⌉`
    /// charge). Zero for every scheme that does not store one; the
    /// IA ∧ α compact scheme overrides this with its Lehmer-code width.
    /// Feeds the bit-accounting breakdown (`crate::accounting`).
    fn port_permutation_bits(&self, u: NodeId) -> usize {
        let _ = u;
        0
    }

    /// Bits charged at node `u`: routing function plus (in model γ) its
    /// label.
    fn charged_size_bits(&self, u: NodeId) -> usize {
        let label = if self.model().charges_labels() {
            self.labeling().charged_bits(u)
        } else {
            0
        };
        self.node_size_bits(u) + label
    }

    /// Total space requirement of the scheme: `Σ_u` routing-function bits,
    /// plus label bits in model γ (the paper's accounting, Section 1).
    fn total_size_bits(&self) -> usize {
        (0..self.node_count()).map(|u| self.charged_size_bits(u)).sum()
    }

    /// The label of node `u` under this scheme's labelling.
    fn label_of(&self, u: NodeId) -> Label {
        self.labeling().label_of(u)
    }

    /// The [`NodeEnv`] the model grants to node `u`: a view of the
    /// scheme's own labelling and port assignment, built without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    fn node_env(&self, u: NodeId) -> NodeEnv<'_> {
        let pa = self.port_assignment();
        let labeling = self.labeling();
        let order = pa.order(u);
        NodeEnv {
            n: self.node_count(),
            label: labeling.label_ref(u),
            degree: order.len(),
            neighbor_labels: self
                .model()
                .neighbors_known()
                .then(|| NeighborLabels::new(labeling, pa, u)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_bitio::BitVec;
    use ort_graphs::Graph;

    #[test]
    fn errors_display() {
        let e = SchemeError::Precondition { reason: "diameter 2".into() };
        assert!(e.to_string().contains("diameter 2"));
        let e = RouteError::PortOutOfRange { port: 9, degree: 4 };
        assert!(e.to_string().contains('9'));
        let e: SchemeError = CodeError::UnexpectedEnd { position: 3 }.into();
        assert!(matches!(e, SchemeError::Code(_)));
    }

    #[test]
    fn neighbor_labels_are_read_in_place() {
        let labeling = Labeling::permutation(vec![1, 3, 0, 2]).unwrap();
        let g = Graph::from_edges(4, [(0, 2), (0, 3)]).unwrap();
        let ports = PortAssignment::from_orders(&g, vec![vec![3, 2], vec![], vec![0], vec![0]]);
        let labels = NeighborLabels::new(&labeling, &ports, 0);
        assert_eq!(
            labels.iter().collect::<Vec<_>>(),
            [LabelRef::Minimal(2), LabelRef::Minimal(0)]
        );
        assert_eq!(labels.port_of(&Label::Minimal(0)), Some(1));
        assert_eq!(labels.port_of(&Label::Minimal(1)), None, "not a neighbour's label");
        assert_eq!(labels.port_of(&Label::Minimal(9)), None, "nobody's label");
        assert_eq!(labels.port_of(&Label::Bits(BitVec::new())), None, "another kind");
        let gamma = Labeling::arbitrary(
            ["0", "10", "11"].into_iter().map(BitVec::from_bit_str).collect(),
        )
        .unwrap();
        let star = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let gamma_ports = PortAssignment::from_orders(&star, vec![vec![2, 1], vec![0], vec![0]]);
        let gamma_labels = NeighborLabels::new(&gamma, &gamma_ports, 0);
        assert_eq!(gamma_labels.port_of(&gamma.label_of(1)), Some(1));
        assert_eq!(gamma_labels.port_of(&gamma.label_of(0)), None);
        // Sorted ports: the same answers, found by rank.
        let sorted = PortAssignment::sorted(&star);
        let by_rank = NeighborLabels::new(&gamma, &sorted, 0);
        assert_eq!(by_rank.port_of(&gamma.label_of(1)), Some(0));
        assert_eq!(by_rank.port_of(&gamma.label_of(2)), Some(1));
        assert_eq!(by_rank.port_of(&gamma.label_of(0)), None, "self is not a neighbour");
        let env = NodeEnv {
            n: 4,
            label: labeling.label_ref(0),
            degree: 2,
            neighbor_labels: Some(labels),
        };
        assert_eq!(env.sorted_minimal_neighbors(), Ok(vec![0, 2]));
        let blind = NodeEnv { neighbor_labels: None, ..env };
        assert!(matches!(
            blind.require_neighbor_labels(),
            Err(RouteError::MissingInformation { .. })
        ));
    }

    #[test]
    fn message_state_default() {
        let s = MessageState::default();
        assert_eq!(s.source, None);
        assert_eq!(s.counter, 0);
    }
}
