// Package streamha is a distributed stream processing runtime with
// pluggable high availability, reproducing "A Hybrid Approach to High
// Availability in Stream Processing Systems" (ICDCS 2010).
//
// A job is a chain of processing elements (PEs) partitioned into subjobs,
// each placed on a (simulated) cluster machine. Every subjob independently
// chooses one of five HA modes:
//
//   - None: a single copy, failures are endured.
//   - Active: active standby — two live copies, downstream deduplication,
//     roughly 4× the traffic and near-zero recovery delay.
//   - Passive: passive standby — sweeping checkpoints to a secondary
//     machine, on-demand redeployment after three heartbeat misses.
//   - Hybrid: the paper's contribution — passive-standby cost in normal
//     conditions (an in-memory-refreshed, pre-deployed but suspended
//     standby) with active-standby reactivity on failures (switchover on
//     the first heartbeat miss, rollback with state read-back once the
//     primary recovers, promotion if the failure turns out to be
//     fail-stop).
//   - Approx: the hybrid control plane with bounded-error recovery —
//     checkpoints ship only hot-slot partial snapshots and failover skips
//     output replay whenever the estimated loss fits an ErrorBudget,
//     trading a measured, budgeted divergence for lower steady-state cost
//     and immediate promotion.
//
// The package is a facade over the internal implementation: it re-exports
// the types needed to define custom PE logic, build clusters and
// pipelines, inject transient failures, and measure delay, traffic and
// recovery behavior. See the examples directory for runnable end-to-end
// programs and internal/experiment for the paper's full evaluation.
package streamha

import (
	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/element"
	"streamha/internal/failure"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/metrics"
	"streamha/internal/pe"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// Core data-model types.
type (
	// Element is one unit of streaming data.
	Element = element.Element
	// Logic is the application-defined transformation of one PE; implement
	// it to write custom operators (see pe.CounterLogic for a template).
	Logic = pe.Logic
	// PESpec describes one PE of a subjob.
	PESpec = subjob.PESpec
)

// Cluster construction.
type (
	// Cluster owns the simulated machines and network of one deployment.
	Cluster = cluster.Cluster
	// ClusterConfig configures a cluster (network latency, clock).
	ClusterConfig = cluster.Config
	// Machine is one simulated cluster machine.
	Machine = machine.Machine
)

// Job deployment.
type (
	// Mode selects a subjob's high-availability scheme.
	Mode = ha.Mode
	// SubjobDef places one subjob and selects its HA mode.
	SubjobDef = ha.SubjobDef
	// SourceDef places and shapes the job's source.
	SourceDef = ha.SourceDef
	// PipelineConfig deploys a chain job.
	PipelineConfig = ha.PipelineConfig
	// Pipeline is a deployed chain job.
	Pipeline = ha.Pipeline
	// TopologyConfig deploys a DAG job (fan-out and fan-in subjobs).
	TopologyConfig = ha.TopologyConfig
	// Topology is a deployed DAG job.
	Topology = ha.Topology
	// TopologySource, TopologySubjob and TopologySink declare DAG nodes.
	TopologySource = ha.TopologySource
	TopologySubjob = ha.TopologySubjob
	TopologySink   = ha.TopologySink
	// Group is one deployed subjob with its HA apparatus.
	Group = ha.Group
	// HybridOptions tunes the hybrid method (intervals, costs, ablations).
	HybridOptions = core.Options
	// PassiveOptions tunes conventional passive standby.
	PassiveOptions = ha.PSOptions
	// ErrorBudget bounds the divergence an Approx-mode failover may admit
	// (max lost elements).
	ErrorBudget = core.ErrorBudget
	// DivergenceStats reports the loss an Approx-mode policy actually
	// admitted across failovers, against its budget.
	DivergenceStats = core.DivergenceStats
	// RescalePlacement places the instance Pipeline.ScaleOut adds to a
	// keyed-parallel stage.
	RescalePlacement = ha.RescalePlacement
	// RescaleReport describes one completed live rescale.
	RescaleReport = ha.RescaleReport
)

// HA modes.
const (
	// None deploys a single unprotected copy.
	None = ha.ModeNone
	// Active runs two live copies (active standby).
	Active = ha.ModeActive
	// Passive checkpoints to a secondary and redeploys on demand.
	Passive = ha.ModePassive
	// Hybrid switches between passive and active standby on failure events.
	Hybrid = ha.ModeHybrid
	// Approx is hybrid with partial checkpoints and budgeted-loss failover.
	Approx = ha.ModeApprox
)

// Cluster scheduling: consensus-backed, fault-domain-aware placement.
type (
	// Scheduler resolves placement requests against live membership,
	// capacity and fault domains, backed by a replicated placement log.
	// Bind one to a cluster with Cluster.BindScheduler; pipelines whose
	// SubjobDefs name no machines then resolve placement through it, and
	// re-arm protection automatically after promotions and standby loss.
	Scheduler = sched.Scheduler
	// SchedulerConfig configures a scheduler (log replicas, timers).
	SchedulerConfig = sched.Config
	// PlacementRequest asks the scheduler for one machine, with optional
	// anti-affinity (machines and fault domains to avoid).
	PlacementRequest = sched.Request
	// RearmEvent records one scheduler-driven protection repair.
	RearmEvent = core.RearmEvent
)

// Failure injection.
type (
	// Injector drives transient CPU-load spikes on one machine.
	Injector = failure.Injector
	// InjectorConfig parameterizes an injector.
	InjectorConfig = failure.InjectorConfig
	// Spike is one ground-truth transient failure interval.
	Spike = failure.Spike
	// FailureScript is a parsed fail-stop trace ("0ms crash w1", ...).
	FailureScript = failure.Script
	// ScriptReplayer replays a FailureScript against a cluster.
	ScriptReplayer = failure.Replayer
)

// Arrival patterns for the failure injector.
const (
	// Regular spaces spikes deterministically.
	Regular = failure.Regular
	// Poisson draws exponential gaps and durations.
	Poisson = failure.Poisson
)

// Measurement.
type (
	// DelayStats accumulates per-element end-to-end delay samples.
	DelayStats = metrics.DelayStats
	// DelaySnapshot is a JSON-marshalable point-in-time view of a DelayStats.
	DelaySnapshot = metrics.DelaySnapshot
	// Registry aggregates named metric sources into one JSON-exportable
	// snapshot; fill it with Pipeline.RegisterMetrics.
	Registry = metrics.Registry
)

// Built-in synthetic logics, usable as templates for custom operators.
type (
	// CounterLogic is a stateful selectivity-1 PE with padded state.
	CounterLogic = pe.CounterLogic
	// FilterLogic drops elements by payload modulus.
	FilterLogic = pe.FilterLogic
	// SplitLogic emits several outputs per input.
	SplitLogic = pe.SplitLogic
	// WindowSumLogic aggregates tumbling windows.
	WindowSumLogic = pe.WindowSumLogic
)

// NewCluster creates a cluster of simulated machines. Add machines with
// MustAddMachine, then deploy jobs with NewPipeline.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// NewPipeline builds and wires a chain job across a cluster; call Start on
// the result to begin processing.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return ha.NewPipeline(cfg) }

// NewTopology builds and wires a DAG job — subjobs may fan out to several
// consumers and merge several producers, each with its own HA mode (the
// paper's evaluation is chains; trees are its stated future work).
func NewTopology(cfg TopologyConfig) (*Topology, error) { return ha.NewTopology(cfg) }

// NewInjector creates a transient-failure injector; call Start to begin
// injecting load spikes.
func NewInjector(cfg InjectorConfig) *Injector { return failure.NewInjector(cfg) }

// NewScheduler creates a cluster scheduler; call Start, then bind it with
// Cluster.BindScheduler so machines added afterwards become schedulable.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) { return sched.New(cfg) }

// ParseFailureScript parses a fail-stop trace, one "<offset> <action>
// <machine>" event per line (e.g. "2s crash w3").
var ParseFailureScript = failure.ParseScript

// NewScriptReplayer creates a replayer that applies a failure script's
// crash/recover events to a cluster on the script's schedule.
func NewScriptReplayer(cl *Cluster, s FailureScript) *ScriptReplayer {
	return failure.NewReplayer(cl.Clock(), cl, s)
}

// NewRegistry creates an empty metrics registry (the zero value also
// works); register a deployed pipeline with Pipeline.RegisterMetrics.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// GapForFraction returns the idle gap between spikes that makes transient
// failures present for the given fraction of time at the given duration.
var GapForFraction = failure.GapForFraction

// DeriveID deterministically derives the logical ID of the i-th output
// element produced from the input element with ID parent. Custom Logic
// implementations must use it so duplicate elimination works across
// replicas and recoveries.
var DeriveID = element.DeriveID
