//! Workflow specification: actors, ports, channels, and the builder.
//!
//! A workflow is specified once — which actors exist, how their ports are
//! wired, what window semantics each input carries, what priority the
//! designer gave each actor — and can then be executed under different
//! models of computation (directors). This mirrors Kepler's decoupling of
//! workflow specification from execution.

use std::collections::HashMap;

use crate::actor::{Actor, IoSignature};
use crate::channel::ChannelPolicy;
use crate::error::{Error, Result};
use crate::shard::{OrderedMerge, ShardReplica, ShardSplitter};
use crate::window::{GroupBy, Measure, WindowSpec};

/// Identifies an actor within one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

impl ActorId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Endpoint on this actor's port named `name`.
    pub fn port(self, name: impl Into<String>) -> Endpoint {
        Endpoint {
            actor: self,
            port: PortKey::Name(name.into()),
        }
    }

    /// Endpoint on this actor's output port `index`.
    pub fn out(self, index: usize) -> Endpoint {
        Endpoint {
            actor: self,
            port: PortKey::Index(index),
        }
    }

    /// Endpoint on this actor's input port `index`.
    pub fn input(self, index: usize) -> Endpoint {
        Endpoint {
            actor: self,
            port: PortKey::Index(index),
        }
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A reference to one port of one actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The actor.
    pub actor: ActorId,
    /// Port index within the actor's input or output list.
    pub port: usize,
}

/// A directed channel from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Producing end.
    pub from: PortRef,
    /// Consuming end.
    pub to: PortRef,
}

/// An actor plus its per-workflow configuration.
pub struct ActorNode {
    /// Unique name within the workflow.
    pub name: String,
    actor: Option<Box<dyn Actor>>,
    /// Cached signature (stable for the actor's lifetime).
    pub signature: IoSignature,
    /// Designer-assigned priority (used by priority-based schedulers;
    /// lower value = more urgent, like Unix nice). Default 20.
    pub priority: i32,
    /// Whether the actor reported itself as a source.
    pub is_source: bool,
}

impl std::fmt::Debug for ActorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorNode")
            .field("name", &self.name)
            .field("signature", &self.signature)
            .field("priority", &self.priority)
            .field("is_source", &self.is_source)
            .field("actor_present", &self.actor.is_some())
            .finish()
    }
}

impl ActorNode {
    /// Borrow the actor mutably. Panics if the actor is currently taken by
    /// a director (programming error).
    pub fn actor_mut(&mut self) -> &mut dyn Actor {
        self.actor
            .as_deref_mut()
            .expect("actor taken by a director")
    }

    /// Borrow the actor immutably (e.g. to read its declared SDF rates).
    /// `None` while a director has taken it.
    pub fn peek_actor(&self) -> Option<&dyn Actor> {
        self.actor.as_deref()
    }

    /// Move the actor out (thread-based directors move each actor into its
    /// own thread).
    pub fn take_actor(&mut self) -> Box<dyn Actor> {
        self.actor.take().expect("actor already taken")
    }

    /// Return a previously taken actor.
    pub fn return_actor(&mut self, actor: Box<dyn Actor>) {
        debug_assert!(self.actor.is_none());
        self.actor = Some(actor);
    }
}

/// A complete, validated workflow specification.
pub struct Workflow {
    name: String,
    nodes: Vec<ActorNode>,
    channels: Vec<Channel>,
    /// Window spec for each (actor, input port).
    input_windows: Vec<Vec<WindowSpec>>,
    /// For each (actor, output port): downstream (actor, input port) pairs.
    routes: Vec<Vec<Vec<PortRef>>>,
    /// For each (actor, input port): number of incoming channels.
    in_degree: Vec<Vec<usize>>,
    /// For each (actor, input port): where that port's expired-items queue
    /// is delivered, if a handler activity was attached.
    expired_routes: Vec<Vec<Option<PortRef>>>,
    /// Per-(actor, input port) channel policy overrides; `None` falls back
    /// to the workflow-wide default.
    channel_policies: Vec<Vec<Option<ChannelPolicy>>>,
    /// Workflow-wide channel policy for ports without an override.
    default_channel_policy: ChannelPolicy,
    /// Shard groups produced by build-time expansion, in declaration order.
    shard_groups: Vec<ShardGroup>,
}

impl std::fmt::Debug for Workflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workflow")
            .field("name", &self.name)
            .field("actors", &self.nodes.len())
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl Workflow {
    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.nodes.len()
    }

    /// All actor ids.
    pub fn actor_ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.nodes.len()).map(ActorId)
    }

    /// Borrow a node.
    pub fn node(&self, id: ActorId) -> &ActorNode {
        &self.nodes[id.0]
    }

    /// Borrow a node mutably.
    pub fn node_mut(&mut self, id: ActorId) -> &mut ActorNode {
        &mut self.nodes[id.0]
    }

    /// Look an actor up by name.
    pub fn find(&self, name: &str) -> Option<ActorId> {
        self.nodes.iter().position(|n| n.name == name).map(ActorId)
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Downstream destinations of one output port.
    pub fn routes_from(&self, actor: ActorId, out_port: usize) -> &[PortRef] {
        &self.routes[actor.0][out_port]
    }

    /// Number of channels feeding one input port.
    pub fn in_degree(&self, actor: ActorId, in_port: usize) -> usize {
        self.in_degree[actor.0][in_port]
    }

    /// Window specification attached to one input port.
    pub fn window_spec(&self, actor: ActorId, in_port: usize) -> &WindowSpec {
        &self.input_windows[actor.0][in_port]
    }

    /// Destination of one input port's expired-items queue, if any.
    pub fn expired_route(&self, actor: ActorId, in_port: usize) -> Option<PortRef> {
        self.expired_routes[actor.0][in_port]
    }

    /// Channel capacity policy in force on one input port (the per-port
    /// override if set, the workflow default otherwise).
    pub fn channel_policy(&self, actor: ActorId, in_port: usize) -> ChannelPolicy {
        self.channel_policies[actor.0][in_port].unwrap_or(self.default_channel_policy)
    }

    /// The workflow-wide channel policy for ports without an override.
    pub fn default_channel_policy(&self) -> ChannelPolicy {
        self.default_channel_policy
    }

    /// Set the workflow-wide channel policy (ports with explicit overrides
    /// keep them). Takes effect the next time a fabric is built, i.e. at
    /// the next run.
    pub fn set_default_channel_policy(&mut self, policy: ChannelPolicy) {
        self.default_channel_policy = policy;
    }

    /// Shard groups produced by build-time expansion (empty when nothing
    /// was sharded).
    pub fn shard_groups(&self) -> &[ShardGroup] {
        &self.shard_groups
    }

    /// Whether any port routes its expired events to a handler.
    pub fn has_expired_routes(&self) -> bool {
        self.expired_routes
            .iter()
            .any(|ports| ports.iter().any(|p| p.is_some()))
    }

    /// Ids of source actors.
    pub fn sources(&self) -> Vec<ActorId> {
        self.actor_ids()
            .filter(|id| self.node(*id).is_source)
            .collect()
    }

    /// Ids of actors with no output channels (workflow outputs).
    pub fn sinks(&self) -> Vec<ActorId> {
        self.actor_ids()
            .filter(|id| self.routes[id.0].iter().all(|r| r.is_empty()))
            .collect()
    }

    /// Immediate downstream actor ids of `actor` (deduplicated).
    pub fn downstream_actors(&self, actor: ActorId) -> Vec<ActorId> {
        let mut out: Vec<ActorId> = self.routes[actor.0]
            .iter()
            .flatten()
            .map(|p| p.actor)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Render the workflow as Graphviz DOT (actors as nodes labelled with
    /// name and priority; channels as edges labelled with port names;
    /// expired-handler feeds as dashed edges; shard groups as dashed
    /// clusters).
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n  rankdir=LR;\n", self.name);
        let mut in_group = vec![false; self.nodes.len()];
        for g in &self.shard_groups {
            for id in g.members() {
                in_group[id.0] = true;
            }
        }
        let node_line = |i: usize| {
            let node = &self.nodes[i];
            let shape = if node.is_source { "invhouse" } else { "box" };
            format!(
                "  n{i} [label=\"{}\\np{}\" shape={shape}];\n",
                node.name, node.priority
            )
        };
        for (i, grouped) in in_group.iter().enumerate() {
            if !grouped {
                out.push_str(&node_line(i));
            }
        }
        for (k, g) in self.shard_groups.iter().enumerate() {
            out.push_str(&format!(
                "  subgraph cluster_shard{k} {{\n    label=\"{} x{}\";\n    style=dashed;\n",
                g.base,
                g.replicas.len()
            ));
            for id in g.members() {
                out.push_str(&format!("  {}", node_line(id.0)));
            }
            out.push_str("  }\n");
        }
        for ch in &self.channels {
            let from = &self.nodes[ch.from.actor.0];
            let to = &self.nodes[ch.to.actor.0];
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{}→{}\"];\n",
                ch.from.actor.0,
                ch.to.actor.0,
                from.signature.outputs[ch.from.port],
                to.signature.inputs[ch.to.port],
            ));
        }
        for (a, ports) in self.expired_routes.iter().enumerate() {
            for dest in ports.iter().flatten() {
                out.push_str(&format!(
                    "  n{a} -> n{} [style=dashed label=\"expired\"];\n",
                    dest.actor.0
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Fluent constructor for [`Workflow`]s.
///
/// ```
/// use confluence_core::graph::WorkflowBuilder;
/// use confluence_core::actors::{VecSource, Collector};
/// use confluence_core::token::Token;
/// use confluence_core::window::WindowSpec;
///
/// let mut b = WorkflowBuilder::new("demo");
/// let src = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
/// let sink = b.add_actor("sink", Collector::new().actor());
/// b.link((src, "out"), (sink, "in")).unwrap();
/// b.window((sink, "in"), WindowSpec::each_event()).unwrap();
/// let wf = b.build().unwrap();
/// assert_eq!(wf.actor_count(), 2);
/// ```
pub struct WorkflowBuilder {
    name: String,
    nodes: Vec<ActorNode>,
    channels: Vec<Channel>,
    input_windows: Vec<Vec<WindowSpec>>,
    expired_handlers: Vec<(ActorId, String, ActorId, String)>,
    channel_policies: Vec<Vec<Option<ChannelPolicy>>>,
    default_channel_policy: ChannelPolicy,
    shards: Vec<(ActorId, Shard)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PortKey {
    Name(String),
    Index(usize),
}

/// A typed reference to one port of one actor — the uniform endpoint
/// vocabulary accepted (as `impl Into<Endpoint>`) by every builder method:
/// [`WorkflowBuilder::link`], [`WorkflowBuilder::window`],
/// [`WorkflowBuilder::link_windowed`], [`WorkflowBuilder::channel_policy`],
/// [`WorkflowBuilder::expired_handler`], and [`WorkflowBuilder::shard`].
///
/// Endpoints are made from an [`ActorId`]: `actor.port("pos_in")`,
/// `actor.out(0)`, `actor.input(1)`, the pairs `(actor, "pos_in")` and
/// `(actor, 1)` — or a bare `ActorId`, meaning its first port. Whether the port resolves against the actor's inputs or
/// outputs is decided by the argument position (`from` resolves outputs,
/// `to` resolves inputs), so `out`/`input` differ only in what they say at
/// the call site.
///
/// ```
/// use confluence_core::graph::WorkflowBuilder;
/// use confluence_core::actors::{VecSource, Collector};
/// use confluence_core::token::Token;
///
/// let mut b = WorkflowBuilder::new("endpoints");
/// let src = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
/// let sink = b.add_actor("sink", Collector::new().actor());
/// b.link(src.port("out"), sink.port("in")).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// The actor this endpoint belongs to.
    pub actor: ActorId,
    port: PortKey,
}

/// A bare actor id is an endpoint on the actor's first (often only) port.
impl From<ActorId> for Endpoint {
    fn from(actor: ActorId) -> Self {
        actor.out(0)
    }
}

impl From<(ActorId, &str)> for Endpoint {
    fn from((actor, name): (ActorId, &str)) -> Self {
        actor.port(name)
    }
}

impl From<(ActorId, usize)> for Endpoint {
    fn from((actor, index): (ActorId, usize)) -> Self {
        actor.out(index)
    }
}

/// Declarative keyed-sharding specification for one actor, applied with
/// [`WorkflowBuilder::shard`]. Reuses the window [`GroupBy`] machinery as
/// its key expression.
#[derive(Debug, Clone)]
pub struct Shard {
    key: GroupBy,
    replicas: usize,
    replica_channel_policy: Option<ChannelPolicy>,
}

impl Shard {
    /// Shard by the value of the named record fields.
    pub fn by_fields(names: &[&str]) -> Shard {
        Self::by_key(GroupBy::fields(names))
    }

    /// Shard by an arbitrary [`GroupBy`] key expression. A
    /// [`GroupBy::Key`] closure is accepted unchecked: the caller asserts
    /// it is consistent with the actor's window grouping.
    pub fn by_key(key: GroupBy) -> Shard {
        Shard {
            key,
            replicas: 2,
            replica_channel_policy: None,
        }
    }

    /// Number of replicas (default 2). `replicas(1)` makes the expansion a
    /// structural no-op.
    pub fn replicas(mut self, n: usize) -> Shard {
        self.replicas = n;
        self
    }

    /// Channel policy applied to every replica's input port (defaults to
    /// the workflow-wide policy).
    pub fn replica_channel_policy(mut self, policy: ChannelPolicy) -> Shard {
        self.replica_channel_policy = Some(policy);
        self
    }
}

/// Metadata about one expanded shard group, recorded on the built
/// [`Workflow`] for telemetry and DOT export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGroup {
    /// Name of the actor that was sharded.
    pub base: String,
    /// The generated key-hash splitter (occupies the original node slot).
    pub splitter: ActorId,
    /// Replica ids, in shard order.
    pub replicas: Vec<ActorId>,
    /// The generated ordered merge stage.
    pub merge: ActorId,
}

impl ShardGroup {
    /// Every generated actor of this group: splitter, replicas, merge.
    pub fn members(&self) -> impl Iterator<Item = ActorId> + '_ {
        std::iter::once(self.splitter)
            .chain(self.replicas.iter().copied())
            .chain(std::iter::once(self.merge))
    }
}

impl WorkflowBuilder {
    /// Start building a workflow.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            nodes: Vec::new(),
            channels: Vec::new(),
            input_windows: Vec::new(),
            expired_handlers: Vec::new(),
            channel_policies: Vec::new(),
            default_channel_policy: ChannelPolicy::unbounded(),
            shards: Vec::new(),
        }
    }

    /// Add an actor under a unique name. Every input port starts with the
    /// degenerate per-event window ([`WindowSpec::each_event`]); attach
    /// richer semantics with [`WorkflowBuilder::window`].
    pub fn add_actor(&mut self, name: impl Into<String>, actor: impl Actor + 'static) -> ActorId {
        self.add_boxed_actor(name, Box::new(actor))
    }

    /// Add an already-boxed actor.
    pub fn add_boxed_actor(&mut self, name: impl Into<String>, actor: Box<dyn Actor>) -> ActorId {
        let signature = actor.signature();
        let is_source = actor.is_source();
        let id = ActorId(self.nodes.len());
        self.input_windows
            .push(vec![WindowSpec::each_event(); signature.inputs.len()]);
        self.channel_policies
            .push(vec![None; signature.inputs.len()]);
        self.nodes.push(ActorNode {
            name: name.into(),
            actor: Some(actor),
            signature,
            priority: 20,
            is_source,
        });
        id
    }

    fn resolve_output(&self, at: &Endpoint) -> Result<usize> {
        let node = self
            .nodes
            .get(at.actor.0)
            .ok_or_else(|| Error::UnknownActor(format!("{}", at.actor)))?;
        match &at.port {
            PortKey::Name(name) => node.signature.output_index(name).ok_or_else(|| {
                Error::UnknownPort(format!("{}.{name} (output)", node.name))
            }),
            PortKey::Index(i) if *i < node.signature.outputs.len() => Ok(*i),
            PortKey::Index(i) => Err(Error::UnknownPort(format!(
                "{}.#{i} (output; {} ports)",
                node.name,
                node.signature.outputs.len()
            ))),
        }
    }

    fn resolve_input(&self, at: &Endpoint) -> Result<usize> {
        let node = self
            .nodes
            .get(at.actor.0)
            .ok_or_else(|| Error::UnknownActor(format!("{}", at.actor)))?;
        match &at.port {
            PortKey::Name(name) => node.signature.input_index(name).ok_or_else(|| {
                Error::UnknownPort(format!("{}.{name} (input)", node.name))
            }),
            PortKey::Index(i) if *i < node.signature.inputs.len() => Ok(*i),
            PortKey::Index(i) => Err(Error::UnknownPort(format!(
                "{}.#{i} (input; {} ports)",
                node.name,
                node.signature.inputs.len()
            ))),
        }
    }

    /// Connect an output endpoint to an input endpoint.
    pub fn link(&mut self, from: impl Into<Endpoint>, to: impl Into<Endpoint>) -> Result<()> {
        let (from, to) = (from.into(), to.into());
        let fp = self.resolve_output(&from)?;
        let tp = self.resolve_input(&to)?;
        self.channels.push(Channel {
            from: PortRef {
                actor: from.actor,
                port: fp,
            },
            to: PortRef {
                actor: to.actor,
                port: tp,
            },
        });
        Ok(())
    }

    /// Connect actors into a linear pipeline: each actor's first output
    /// port feeds the next actor's first input port.
    pub fn chain(&mut self, actors: &[ActorId]) -> Result<()> {
        for pair in actors.windows(2) {
            self.link(pair[0].out(0), pair[1].input(0))?;
        }
        Ok(())
    }

    /// Attach window semantics to an input endpoint.
    pub fn window(&mut self, at: impl Into<Endpoint>, spec: WindowSpec) -> Result<()> {
        spec.validate()?;
        let at = at.into();
        let idx = self.resolve_input(&at)?;
        self.input_windows[at.actor.0][idx] = spec;
        Ok(())
    }

    /// Convenience: [`WorkflowBuilder::link`] and set the destination
    /// endpoint's window in one go.
    pub fn link_windowed(
        &mut self,
        from: impl Into<Endpoint>,
        to: impl Into<Endpoint>,
        spec: WindowSpec,
    ) -> Result<()> {
        let to = to.into();
        self.link(from, to.clone())?;
        self.window(to, spec)
    }

    /// Assign a designer priority (used by the QBS scheduler; lower is more
    /// urgent).
    pub fn set_priority(&mut self, actor: ActorId, priority: i32) {
        self.nodes[actor.0].priority = priority;
    }

    /// Attach a channel capacity policy to one input endpoint (overrides
    /// the workflow default set by
    /// [`WorkflowBuilder::set_default_channel_policy`]).
    pub fn channel_policy(&mut self, at: impl Into<Endpoint>, policy: ChannelPolicy) -> Result<()> {
        let at = at.into();
        let idx = self.resolve_input(&at)?;
        self.channel_policies[at.actor.0][idx] = Some(policy);
        Ok(())
    }

    /// Set the workflow-wide channel policy applied to every input port
    /// without an explicit override. Defaults to
    /// [`ChannelPolicy::unbounded`].
    pub fn set_default_channel_policy(&mut self, policy: ChannelPolicy) {
        self.default_channel_policy = policy;
    }

    /// Attach a handler activity to an input endpoint's expired-items
    /// queue (paper §2.1: "when events expire they are pushed to an
    /// expired items queue which are optionally handled by another
    /// workflow activity"). Events sliding out of `at`'s windows are
    /// delivered to `handler` instead of being discarded.
    pub fn expired_handler(
        &mut self,
        at: impl Into<Endpoint>,
        handler: impl Into<Endpoint>,
    ) -> Result<()> {
        // Resolve eagerly and store the canonical names; final route
        // resolution happens at build().
        let (at, handler) = (at.into(), handler.into());
        let pi = self.resolve_input(&at)?;
        let hi = self.resolve_input(&handler)?;
        let port = self.nodes[at.actor.0].signature.inputs[pi].clone();
        let handler_port = self.nodes[handler.actor.0].signature.inputs[hi].clone();
        self.expired_handlers
            .push((at.actor, port, handler.actor, handler_port));
        Ok(())
    }

    /// Mark an actor for keyed sharding: at [`WorkflowBuilder::build`] the
    /// actor is expanded into `spec.replicas` replicas behind a generated
    /// key-hash splitter and an ordered merge stage (see [`crate::shard`]),
    /// invisible to both its neighbours and the director. The actor must
    /// have exactly one input and one output port, support
    /// [`Actor::replicate`], and its input window's group-by must be at
    /// least as fine as the shard key (or be the per-event window).
    pub fn shard(&mut self, actor: impl Into<Endpoint>, spec: Shard) -> Result<()> {
        let actor = actor.into().actor;
        let node = self
            .nodes
            .get(actor.0)
            .ok_or_else(|| Error::UnknownActor(format!("{actor}")))?;
        if spec.replicas == 0 {
            return Err(Error::Graph(format!(
                "shard on `{}` needs at least one replica",
                node.name
            )));
        }
        if node.is_source {
            return Err(Error::Graph(format!("cannot shard source actor `{}`", node.name)));
        }
        if self.shards.iter().any(|(id, _)| *id == actor) {
            return Err(Error::Graph(format!(
                "actor `{}` is already marked for sharding",
                node.name
            )));
        }
        self.shards.push((actor, spec));
        Ok(())
    }

    /// Expand every [`WorkflowBuilder::shard`] declaration in place,
    /// returning the recorded group metadata.
    fn expand_shards(&mut self) -> Result<Vec<ShardGroup>> {
        let mut groups = Vec::new();
        let shards = std::mem::take(&mut self.shards);
        for (id, spec) in shards {
            if spec.replicas == 1 {
                continue; // structural no-op
            }
            let node = &self.nodes[id.0];
            let base = node.name.clone();
            if node.signature.inputs.len() != 1 || node.signature.outputs.len() != 1 {
                return Err(Error::Graph(format!(
                    "cannot shard `{base}`: sharding requires exactly one input and one \
                     output port (has {} inputs, {} outputs)",
                    node.signature.inputs.len(),
                    node.signature.outputs.len()
                )));
            }
            // The actor's window moves to the replicas, so per-replica
            // windowing must equal global windowing: the window's group-by
            // has to be at least as fine as the shard key (every window
            // group lands whole on one replica), unless each event forms
            // its own window anyway.
            let w = self.input_windows[id.0][0].clone();
            let per_event = w.size == Measure::Tuples(1) && w.step == Measure::Tuples(1);
            let compatible = per_event
                || match (&spec.key, &w.group_by) {
                    (GroupBy::Fields(k), GroupBy::Fields(g)) => {
                        k.names().iter().all(|f| g.index_of(f).is_some())
                    }
                    (GroupBy::Key(_), _) => true, // caller-asserted
                    _ => false,
                };
            if !compatible {
                return Err(Error::Graph(format!(
                    "cannot shard `{base}`: its input window must group by at least the \
                     shard key fields (or be the per-event window)"
                )));
            }
            let n = spec.replicas;
            let in_name = node.signature.inputs[0].clone();
            let priority = node.priority;

            // The splitter takes over the sharded actor's node slot so
            // upstream channels stay untouched.
            let inner = self.nodes[id.0].actor.take().expect("actor taken before build");
            let mut inners = vec![inner];
            for _ in 1..n {
                let replica = inners[0].replicate().ok_or_else(|| {
                    Error::Graph(format!(
                        "cannot shard `{base}`: Actor::replicate returned None \
                         (the actor does not declare itself replicable)"
                    ))
                })?;
                inners.push(replica);
            }
            let splitter: Box<dyn Actor> =
                Box::new(ShardSplitter::new(spec.key.clone(), n, in_name.as_str()));
            let signature = splitter.signature();
            self.nodes[id.0] = ActorNode {
                name: format!("{base}#split"),
                actor: Some(splitter),
                signature,
                priority,
                is_source: false,
            };
            self.input_windows[id.0] = vec![WindowSpec::each_event()];

            let replica_ids: Vec<ActorId> = inners
                .into_iter()
                .enumerate()
                .map(|(r, inner)| {
                    let rid = self.add_boxed_actor(
                        format!("{base}#{r}"),
                        Box::new(ShardReplica::new(inner)),
                    );
                    self.nodes[rid.0].priority = priority;
                    self.input_windows[rid.0][0] = w.clone();
                    if let Some(policy) = spec.replica_channel_policy {
                        self.channel_policies[rid.0][0] = Some(policy);
                    }
                    rid
                })
                .collect();
            let merge = self.add_boxed_actor(format!("{base}#merge"), Box::new(OrderedMerge::new(n)));
            self.nodes[merge.0].priority = priority;

            // Re-point the sharded actor's out-edges to the merge, *before*
            // wiring the generated channels (which also originate at `id`).
            for ch in &mut self.channels {
                if ch.from.actor == id {
                    ch.from = PortRef {
                        actor: merge,
                        port: 0,
                    };
                }
            }
            for (r, &rid) in replica_ids.iter().enumerate() {
                self.link((id, r), (rid, 0))?;
                self.link((id, n + r), (rid, 1))?;
                self.link((rid, 0), (merge, r))?;
                self.link((rid, 1), (merge, n + r))?;
            }

            // Expired events of the (now replica-held) window keep flowing
            // to the declared handler, from every replica.
            let handlers = std::mem::take(&mut self.expired_handlers);
            for (a, p, h, hp) in handlers {
                if a == id {
                    for &rid in &replica_ids {
                        self.expired_handlers.push((rid, p.clone(), h, hp.clone()));
                    }
                } else {
                    self.expired_handlers.push((a, p, h, hp));
                }
            }

            groups.push(ShardGroup {
                base,
                splitter: id,
                replicas: replica_ids,
                merge,
            });
        }
        Ok(groups)
    }

    /// Validate and produce the workflow.
    pub fn build(mut self) -> Result<Workflow> {
        let shard_groups = self.expand_shards()?;
        let mut seen = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(prev) = seen.insert(node.name.clone(), i) {
                return Err(Error::Graph(format!(
                    "duplicate actor name `{}` (actors #{prev} and #{i})",
                    node.name
                )));
            }
        }
        let mut routes: Vec<Vec<Vec<PortRef>>> = self
            .nodes
            .iter()
            .map(|n| vec![Vec::new(); n.signature.outputs.len()])
            .collect();
        let mut in_degree: Vec<Vec<usize>> = self
            .nodes
            .iter()
            .map(|n| vec![0; n.signature.inputs.len()])
            .collect();
        for ch in &self.channels {
            routes[ch.from.actor.0][ch.from.port].push(ch.to);
            in_degree[ch.to.actor.0][ch.to.port] += 1;
        }
        let mut expired_routes: Vec<Vec<Option<PortRef>>> = self
            .nodes
            .iter()
            .map(|n| vec![None; n.signature.inputs.len()])
            .collect();
        for (actor, port, handler, handler_port) in &self.expired_handlers {
            let pi = self.nodes[actor.0]
                .signature
                .input_index(port)
                .expect("validated at registration");
            let hi = self.nodes[handler.0]
                .signature
                .input_index(handler_port)
                .expect("validated at registration");
            expired_routes[actor.0][pi] = Some(PortRef {
                actor: *handler,
                port: hi,
            });
        }
        // Source actors must not have connected inputs; non-source actors
        // with inputs must have at least one connected input overall,
        // otherwise they can never fire. A port that only receives expired
        // events counts as connected.
        let expired_fed: Vec<ActorId> = expired_routes
            .iter()
            .flatten()
            .flatten()
            .map(|p| p.actor)
            .collect();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_source && in_degree[i].iter().any(|&d| d > 0) {
                return Err(Error::Graph(format!(
                    "source actor `{}` has connected inputs",
                    node.name
                )));
            }
            if !node.is_source
                && !node.signature.inputs.is_empty()
                && in_degree[i].iter().all(|&d| d == 0)
                && !expired_fed.contains(&ActorId(i))
            {
                return Err(Error::Graph(format!(
                    "actor `{}` has no connected inputs and is not a source",
                    node.name
                )));
            }
        }
        Ok(Workflow {
            name: self.name,
            nodes: self.nodes,
            channels: self.channels,
            input_windows: self.input_windows,
            routes,
            in_degree,
            expired_routes,
            channel_policies: self.channel_policies,
            default_channel_policy: self.default_channel_policy,
            shard_groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::FireContext;
    use crate::token::Token;

    struct Src;
    impl Actor for Src {
        fn signature(&self) -> IoSignature {
            IoSignature::source("out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            ctx.emit(0, Token::Int(1));
            Ok(())
        }
        fn is_source(&self) -> bool {
            true
        }
    }

    struct Pass;
    impl Actor for Pass {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            if let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    ctx.emit(0, t.clone());
                }
            }
            Ok(())
        }
    }

    struct Sink;
    impl Actor for Sink {
        fn signature(&self) -> IoSignature {
            IoSignature::sink("in")
        }
        fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Ok(())
        }
    }

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_actor("src", Src);
        let p1 = b.add_actor("p1", Pass);
        let p2 = b.add_actor("p2", Pass);
        let k = b.add_actor("sink", Sink);
        b.link((s, "out"), (p1, "in")).unwrap();
        b.link((s, "out"), (p2, "in")).unwrap();
        b.link((p1, "out"), (k, "in")).unwrap();
        b.link((p2, "out"), (k, "in")).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_queries_topology() {
        let wf = diamond();
        assert_eq!(wf.actor_count(), 4);
        assert_eq!(wf.channels().len(), 4);
        let s = wf.find("src").unwrap();
        let k = wf.find("sink").unwrap();
        assert_eq!(wf.sources(), vec![s]);
        assert_eq!(wf.sinks(), vec![k]);
        assert_eq!(wf.routes_from(s, 0).len(), 2);
        assert_eq!(wf.in_degree(k, 0), 2);
        assert_eq!(wf.downstream_actors(s).len(), 2);
        assert!(wf.find("nope").is_none());
        assert_eq!(format!("{s}"), "actor#0");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = WorkflowBuilder::new("dup");
        b.add_actor("x", Src);
        b.add_actor("x", Sink);
        assert!(matches!(b.build(), Err(Error::Graph(_))));
    }

    #[test]
    fn unknown_ports_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        let s = b.add_actor("s", Src);
        let k = b.add_actor("k", Sink);
        assert!(b.link((s, "nope"), (k, "in")).is_err());
        assert!(b.link((s, "out"), (k, "nope")).is_err());
        assert!(b
            .window((k, "nope"), crate::window::WindowSpec::each_event())
            .is_err());
    }

    #[test]
    fn ports_select_by_index_or_name() {
        // Index-based connect builds the same topology as name-based.
        let mut b = WorkflowBuilder::new("by-index");
        let s = b.add_actor("src", Src);
        let p = b.add_actor("pass", Pass);
        let k = b.add_actor("sink", Sink);
        b.link((s, 0), (p, 0)).unwrap();
        b.link((p, "out"), (k, 0)).unwrap();
        b.window((k, 0), crate::window::WindowSpec::tuples(2, 1)).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.channels().len(), 2);
        assert_eq!(
            wf.window_spec(k, 0).size,
            crate::window::Measure::Tuples(2)
        );
        // Out-of-range indices are rejected with the port error.
        let mut b = WorkflowBuilder::new("oob");
        let s = b.add_actor("src", Src);
        let k = b.add_actor("sink", Sink);
        assert!(matches!(b.link((s, 3), (k, 0)), Err(Error::UnknownPort(_))));
        assert!(matches!(b.link((s, 0), (k, 9)), Err(Error::UnknownPort(_))));
    }

    #[test]
    fn chain_builds_linear_pipeline() {
        let mut b = WorkflowBuilder::new("chained");
        let s = b.add_actor("src", Src);
        let p1 = b.add_actor("p1", Pass);
        let p2 = b.add_actor("p2", Pass);
        let k = b.add_actor("sink", Sink);
        b.chain(&[s, p1, p2, k]).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.channels().len(), 3);
        assert_eq!(wf.routes_from(s, 0), &[PortRef { actor: p1, port: 0 }]);
        assert_eq!(wf.routes_from(p1, 0), &[PortRef { actor: p2, port: 0 }]);
        assert_eq!(wf.routes_from(p2, 0), &[PortRef { actor: k, port: 0 }]);
        // Degenerate chains are no-ops.
        let mut b = WorkflowBuilder::new("short");
        let s = b.add_actor("src", Src);
        b.chain(&[s]).unwrap();
        b.chain(&[]).unwrap();
    }

    #[test]
    fn dangling_input_rejected() {
        let mut b = WorkflowBuilder::new("dangling");
        b.add_actor("s", Src);
        b.add_actor("k", Sink); // never connected
        assert!(matches!(b.build(), Err(Error::Graph(_))));
    }

    #[test]
    fn source_with_input_rejected() {
        struct WeirdSource;
        impl Actor for WeirdSource {
            fn signature(&self) -> IoSignature {
                IoSignature::new(&["in"], &["out"])
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Ok(())
            }
            fn is_source(&self) -> bool {
                true
            }
        }
        let mut b = WorkflowBuilder::new("weird");
        let s = b.add_actor("s", Src);
        let w = b.add_actor("w", WeirdSource);
        b.link((s, "out"), (w, "in")).unwrap();
        assert!(matches!(b.build(), Err(Error::Graph(_))));
    }

    #[test]
    fn priorities_and_windows_stored() {
        let mut b = WorkflowBuilder::new("p");
        let s = b.add_actor("s", Src);
        let k = b.add_actor("k", Sink);
        b.link_windowed((s, "out"), (k, "in"), crate::window::WindowSpec::tuples(4, 1)).unwrap();
        b.set_priority(k, 5);
        let wf = b.build().unwrap();
        assert_eq!(wf.node(k).priority, 5);
        assert_eq!(
            wf.window_spec(k, 0).size,
            crate::window::Measure::Tuples(4)
        );
        assert_eq!(wf.node(s).priority, 20);
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let wf = diamond();
        let dot = wf.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("src"));
        assert!(dot.contains("invhouse"), "sources get a distinct shape");
        assert_eq!(dot.matches(" -> ").count(), 4, "four channels");
        assert!(dot.contains("out→in"));
    }

    #[test]
    fn take_and_return_actor() {
        let mut wf = diamond();
        let s = wf.find("src").unwrap();
        let a = wf.node_mut(s).take_actor();
        wf.node_mut(s).return_actor(a);
        let _ = wf.node_mut(s).actor_mut();
    }
}
