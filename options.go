package locastream

import (
	"time"

	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/simnet"
	"github.com/locastream/locastream/internal/topology"
)

// options collects the tunables shared by App and Simulation.
type options struct {
	servers        int
	racks          []int
	clusters       []int
	placement      map[string][]int
	sourceGrouping topology.Grouping
	sourceKeyField int
	sketchCapacity int
	maxInFlight    int
	maxBuffered    int
	tcpTransport   bool
	hashOnly       bool
	worstCase      bool
	optimizer      core.OptimizerOptions
	store          core.ConfigStore
	reconfigEvery  time.Duration
	model          simnet.Model
	chargeSource   bool
	keySplitting   bool
	splitThreshold float64
	stateDir       string
	autoscaleMin   int
	autoscaleMax   int
}

func defaultOptions() options {
	return options{
		servers:        1,
		sourceGrouping: topology.Fields,
		sketchCapacity: 1 << 14,
		model:          simnet.Default10G(),
	}
}

// Option configures App and Simulation construction.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithServers deploys the application on n servers; instance i of every
// operator is placed on server i mod n (the paper's deployment when
// parallelism == n).
func WithServers(n int) Option {
	return optionFunc(func(o *options) { o.servers = n })
}

// WithRacks assigns servers to racks (one entry per server; ids need
// not be dense). Rack information enables the hierarchical-locality
// extension: the optimizer splits keys across racks before servers,
// minimizing traffic over the expensive inter-rack links, and traffic
// is accounted per rack (Traffic.RackLocality).
func WithRacks(rackOf []int) Option {
	return optionFunc(func(o *options) { o.racks = append([]int(nil), rackOf...) })
}

// WithClusters assigns servers to clusters (one entry per server; ids
// need not be dense), adding the third locality tier: server → rack →
// cluster. Racks (WithRacks) must nest inside clusters. On a
// multi-cluster placement the optimizer splits keys across clusters by
// the key graph first, then across each cluster's racks and servers;
// per-tier traffic and wire accounting turn on
// (Traffic.ClusterLocality, WireStats.TierBytesSent); and an autopilot
// runs hierarchically: per-cluster control loops own the local moves
// while a federation layer gates cross-cluster migrations at the
// inter-cluster cost multiple (100× a rack hop), journaling approvals as
// Federated decisions.
func WithClusters(clusterOf []int) Option {
	return optionFunc(func(o *options) { o.clusters = append([]int(nil), clusterOf...) })
}

// WithFlatOptimizer keeps the flat partitioner on a placement that
// declares racks or clusters — the baseline for measuring what the
// nested partition buys. Per-tier traffic accounting and simulation
// costs still apply; only the partitioner (and, on an App, the
// autopilot's federation layer) ignores the tiers.
func WithFlatOptimizer() Option {
	return optionFunc(func(o *options) { o.optimizer.Flat = true })
}

// WithPlacement overrides the round-robin placement with an explicit
// per-operator assignment of instance index to server.
func WithPlacement(assign map[string][]int) Option {
	return optionFunc(func(o *options) {
		copied := make(map[string][]int, len(assign))
		for op, servers := range assign {
			copied[op] = append([]int(nil), servers...)
		}
		o.placement = copied
	})
}

// WithSourceGrouping sets how externally injected tuples are routed to
// the source operator (default: Fields on field keyField).
func WithSourceGrouping(g Grouping, keyField int) Option {
	return optionFunc(func(o *options) {
		o.sourceGrouping = g
		o.sourceKeyField = keyField
	})
}

// WithSketchCapacity bounds the per-instance SpaceSaving pair sketches
// (default 16384 pairs; the paper finds a few MB per instance ample).
// Zero disables instrumentation and, with it, optimization.
func WithSketchCapacity(n int) Option {
	return optionFunc(func(o *options) { o.sketchCapacity = n })
}

// WithMaxInFlight bounds externally injected unprocessed tuples,
// providing source backpressure in App (0 = unlimited).
func WithMaxInFlight(n int) Option {
	return optionFunc(func(o *options) { o.maxInFlight = n })
}

// WithMaxBuffered bounds, per operator instance, the tuples buffered for
// keys whose state is still in transit during a migration or a failure
// recovery (0 = unlimited). Overflow is dropped and counted as tuple
// loss, so a slow restore degrades to bounded loss instead of unbounded
// memory.
func WithMaxBuffered(n int) Option {
	return optionFunc(func(o *options) { o.maxBuffered = n })
}

// WithChargedSourceHop also bills the network cost of delivering
// externally injected tuples to the source operator in Simulation. The
// default (off) matches the paper's setup, where sources generate data
// in place and the measured pipeline starts at the first operator.
func WithChargedSourceHop() Option {
	return optionFunc(func(o *options) { o.chargeSource = true })
}

// WithTCPTransport routes every cross-server message of App through real
// localhost TCP connections (one per server pair), exercising
// serialization and the kernel network path; same-server messages stay
// in memory. This reproduces the local/remote asymmetry of a physical
// cluster inside one process.
func WithTCPTransport() Option {
	return optionFunc(func(o *options) { o.tcpTransport = true })
}

// WithKeySplitting enables hot-key splitting (partial key grouping,
// Nasir et al.): the autopilot may promote a heavy-hitter key of a
// mergeable stateful operator to replicated 2-choice routing, spreading
// its load over several instances, and demote it — merging the partials
// back into one owner — once it cools. Only keys promoted this way lose
// single-server locality; the tail keeps the paper's routing-table
// treatment. Requires an autopilot (the splitter runs on its ticks) and
// operators whose processors implement Mergeable.
func WithKeySplitting() Option {
	return optionFunc(func(o *options) { o.keySplitting = true })
}

// WithSplitThreshold sets the hot-key promotion threshold as a multiple
// of an operator's fair per-instance share of one statistics window
// (default 1.5): a key routing more than mult × (total/parallelism)
// tuples is a promotion candidate. Implies nothing unless
// WithKeySplitting is set.
func WithSplitThreshold(mult float64) Option {
	return optionFunc(func(o *options) { o.splitThreshold = mult })
}

// WithAutoscale builds the application for elastic scaling between min
// and max servers. The placement is laid out at max capacity; servers
// beyond the initial width (WithServers, clamped into [min, max]) start
// parked — executors running with open mailboxes but no transport
// connections and excluded from routing. App.ScaleTo resizes the active
// membership at runtime with a minimal-movement repartition, and an
// autopilot built with AutopilotOptions.ScaleTargetLoad closes the loop
// automatically from the measured window traffic.
func WithAutoscale(min, max int) Option {
	return optionFunc(func(o *options) {
		o.autoscaleMin = min
		o.autoscaleMax = max
	})
}

// WithHashRouting disables routing tables: fields grouping stays pure
// hash, the paper's baseline.
func WithHashRouting() Option {
	return optionFunc(func(o *options) { o.hashOnly = true })
}

// WithWorstCaseRouting forces every fields-grouped tuple over the
// network, the paper's lower bound (simulation benchmarks only).
func WithWorstCaseRouting() Option {
	return optionFunc(func(o *options) { o.worstCase = true })
}

// WithOptimizer tunes the routing optimizer: alpha is the load-imbalance
// bound (0 selects the paper's 1.03), maxEdges bounds the key pairs
// considered per operator pair (0 keeps all), seed fixes tie-breaking.
func WithOptimizer(alpha float64, maxEdges int, seed int64) Option {
	return optionFunc(func(o *options) {
		o.optimizer.Alpha = alpha
		o.optimizer.MaxEdges = maxEdges
		o.optimizer.Seed = seed
	})
}

// WithStateStore attaches a tiered queryable checkpoint store rooted at
// dir: checkpoints land in append-only segment files under a versioned
// manifest, background compaction folds history into a base image, and
// the state becomes readable — point in time — through App.QueryState /
// App.ScanState and, with an autopilot, GET /state/{op}[/{key}]. A
// FaultTolerance created without an explicit Store or Dir checkpoints
// into this store automatically. The App owns the store and closes it
// on Stop.
func WithStateStore(dir string) Option {
	return optionFunc(func(o *options) { o.stateDir = dir })
}

// WithConfigStore persists every routing configuration before deployment
// (fault tolerance, §3.4). FileStore writes JSON under a directory.
func WithConfigStore(store ConfigStore) Option {
	return optionFunc(func(o *options) { o.store = store })
}

// WithAutoReconfigure makes App run the full collect-optimize-deploy
// cycle on a fixed period, the paper's online mode. Stop cancels it.
func WithAutoReconfigure(every time.Duration) Option {
	return optionFunc(func(o *options) { o.reconfigEvery = every })
}

// CostModel is the calibrated cluster cost model used by Simulation.
type CostModel = simnet.Model

// Model10G returns the cost model calibrated for the paper's 10 Gb/s
// testbed.
func Model10G() CostModel { return simnet.Default10G() }

// Model1G returns the 1 Gb/s (throttled network) model of §4.4.
func Model1G() CostModel { return simnet.Default1G() }

// WithCostModel selects the simulation cost model (default Model10G).
func WithCostModel(m CostModel) Option {
	return optionFunc(func(o *options) { o.model = m })
}

// ConfigStore persists routing configurations.
type ConfigStore = core.ConfigStore

// NewFileConfigStore returns a ConfigStore writing JSON files under dir.
func NewFileConfigStore(dir string) ConfigStore { return &core.FileStore{Dir: dir} }

// NewMemoryConfigStore returns an in-process ConfigStore.
func NewMemoryConfigStore() ConfigStore { return &core.MemoryStore{} }
