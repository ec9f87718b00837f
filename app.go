package locastream

import (
	"fmt"
	"sync"
	"time"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/statestore"
	"github.com/locastream/locastream/internal/topology"
)

// Plan reports what a deployed routing configuration promises: the
// optimizer's expected locality over the statistics it saw and the
// partition's load imbalance.
type Plan = core.Plan

// Impact is the reconfiguration estimator's forecast: locality gained,
// traffic saved, and keys that would migrate.
type Impact = core.Impact

// App is a running locality-aware streaming application: one goroutine
// per operator instance, a manager implementing the paper's online
// reconfiguration protocol, and optional periodic auto-reconfiguration.
//
// All methods are safe for concurrent use; concurrent Reconfigure calls
// are serialized internally (the auto-reconfigure ticker uses the same
// path).
type App struct {
	topo  *Topology
	place *cluster.Placement
	live  *engine.Live
	mgr   *core.Manager

	keySplitting   bool
	splitThreshold float64

	// autoMin/autoMax bound the elastic membership (0/0 without
	// WithAutoscale).
	autoMin, autoMax int

	stateStore *statestore.Store // non-nil with WithStateStore; closed on Stop

	reconfigMu sync.Mutex

	// faultTol is the attached fault-tolerance subsystem, if any; ScaleTo
	// drains keyed state through it before a scale-down.
	ftMu     sync.Mutex
	faultTol *FaultTolerance

	stopTicker chan struct{}
	tickerDone chan struct{}
}

// NewApp deploys the topology and starts its executors.
func NewApp(topo *Topology, opts ...Option) (*App, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	if topo == nil {
		return nil, fmt.Errorf("locastream: nil topology")
	}

	// WithAutoscale lays the placement out at max capacity and parks the
	// servers beyond the initial width; ScaleTo flips them in and out.
	initialActive := 0
	if o.autoscaleMax > 0 {
		if o.autoscaleMin < 1 || o.autoscaleMax < o.autoscaleMin {
			return nil, fmt.Errorf("locastream: invalid autoscale range [%d, %d]",
				o.autoscaleMin, o.autoscaleMax)
		}
		initialActive = o.servers
		if initialActive < o.autoscaleMin {
			initialActive = o.autoscaleMin
		}
		if initialActive > o.autoscaleMax {
			initialActive = o.autoscaleMax
		}
		o.servers = o.autoscaleMax
	}

	place, err := buildPlacement(topo, o)
	if err != nil {
		return nil, err
	}
	var activeMask []bool
	if initialActive > 0 && initialActive < o.servers {
		activeMask = make([]bool, o.servers)
		for s := 0; s < initialActive; s++ {
			activeMask[s] = true
		}
	}
	mode := fieldsMode(o)
	policies, err := engine.NewPolicies(topo, place, mode)
	if err != nil {
		return nil, err
	}
	src, err := engine.NewSourcePolicy(topo, place, o.sourceGrouping, mode)
	if err != nil {
		return nil, err
	}
	live, err := engine.NewLive(engine.LiveConfig{
		Topology:       topo,
		Placement:      place,
		Policies:       policies,
		SourcePolicy:   src,
		SourceGrouping: o.sourceGrouping,
		SourceKeyField: o.sourceKeyField,
		SketchCapacity: o.sketchCapacity,
		MaxInFlight:    o.maxInFlight,
		MaxBuffered:    o.maxBuffered,
		TCPTransport:   o.tcpTransport,
		KeySplitting:   o.keySplitting,
		ActiveServers:  activeMask,
	})
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(live, topo, place, core.ManagerOptions{
		Optimizer: o.optimizer,
		Store:     o.store,
	})
	if err != nil {
		live.Stop()
		return nil, err
	}
	if activeMask != nil {
		// The optimizer must partition over the initial membership, not
		// the full capacity, or it would assign keys to parked servers.
		activeList := make([]int, initialActive)
		for s := range activeList {
			activeList[s] = s
		}
		mgr.SetActiveServers(activeList)
	}
	var stateStore *statestore.Store
	if o.stateDir != "" {
		stateStore, err = statestore.Open(o.stateDir, statestore.Options{})
		if err != nil {
			live.Stop()
			return nil, fmt.Errorf("locastream: open state store: %w", err)
		}
	}

	app := &App{
		topo: topo, place: place, live: live, mgr: mgr,
		keySplitting: o.keySplitting, splitThreshold: o.splitThreshold,
		autoMin: o.autoscaleMin, autoMax: o.autoscaleMax,
		stateStore: stateStore,
	}
	if o.reconfigEvery > 0 {
		app.stopTicker = make(chan struct{})
		app.tickerDone = make(chan struct{})
		go app.autoReconfigure(o.reconfigEvery)
	}
	return app, nil
}

func buildPlacement(topo *Topology, o options) (*cluster.Placement, error) {
	var (
		place *cluster.Placement
		err   error
	)
	if o.placement != nil {
		place, err = cluster.NewExplicit(topo, o.servers, o.placement)
	} else {
		place, err = cluster.NewRoundRobin(topo, o.servers)
	}
	if err != nil {
		return nil, err
	}
	if o.racks != nil || o.clusters != nil {
		if err := place.AssignTiers(o.racks, o.clusters); err != nil {
			return nil, err
		}
	}
	return place, nil
}

func fieldsMode(o options) engine.FieldsMode {
	switch {
	case o.worstCase:
		return engine.FieldsWorstCase
	case o.hashOnly:
		return engine.FieldsHash
	default:
		return engine.FieldsTable
	}
}

func (a *App) autoReconfigure(every time.Duration) {
	defer close(a.tickerDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Periodic optimization failures (e.g. during shutdown) are
			// not fatal to the stream; the next tick retries.
			_, _ = a.Reconfigure()
		case <-a.stopTicker:
			return
		}
	}
}

// Inject routes one external tuple into the topology, blocking when the
// configured MaxInFlight is reached.
func (a *App) Inject(t Tuple) error { return a.live.Inject(t) }

// Drain blocks until every injected tuple has been fully processed.
func (a *App) Drain() { a.live.Drain() }

// Reconfigure runs one full cycle of the paper's Algorithm 1: collect
// key-pair statistics, compute new routing tables, persist them, deploy
// them online and migrate the affected state. The stream keeps flowing.
func (a *App) Reconfigure() (*Plan, error) {
	a.reconfigMu.Lock()
	defer a.reconfigMu.Unlock()
	return a.mgr.Reconfigure()
}

// ReconfigureIfWorthwhile computes a candidate configuration but deploys
// it only when the impact estimator predicts the saved traffic to
// amortize the migration (costPerKey tuple transfers per moved key per
// statistics period) — the fine-grained manager policy the paper's
// conclusion calls for on volatile workloads. Either way the statistics
// window restarts.
func (a *App) ReconfigureIfWorthwhile(costPerKey float64) (*Plan, Impact, bool, error) {
	a.reconfigMu.Lock()
	defer a.reconfigMu.Unlock()
	return a.mgr.ReconfigureIfWorthwhile(costPerKey)
}

// Locality returns the fraction of fields-grouped transfers that stayed
// on one server since the application started.
func (a *App) Locality() float64 { return a.live.FieldsTraffic().Locality() }

// RackLocality returns the fraction of fields-grouped transfers that
// stayed on one server or within one rack.
func (a *App) RackLocality() float64 { return a.live.FieldsTraffic().RackLocality() }

// FieldsTraffic returns the aggregated fields-grouping traffic counters.
func (a *App) FieldsTraffic() Traffic { return a.live.FieldsTraffic() }

// Traffic returns the counters of one edge.
func (a *App) Traffic(from, to string) Traffic { return a.live.Traffic(from, to) }

// Loads returns tuples processed per instance of op.
func (a *App) Loads(op string) []uint64 { return a.live.Loads(op) }

// ProcessorState runs fn inside the executor goroutine that owns
// instance inst of op, giving race-free access to processor state.
func (a *App) ProcessorState(op string, inst int, fn func(Processor)) error {
	return a.live.ProcessorState(op, inst, func(p topology.Processor) { fn(p) })
}

// Servers returns the number of servers the application is deployed on
// — with WithAutoscale, the max capacity the placement was built for.
func (a *App) Servers() int { return a.place.Servers() }

// ActiveServers returns the current elastic membership width (equal to
// Servers without WithAutoscale).
func (a *App) ActiveServers() int { return a.live.ActiveServers() }

// Stop drains the stream, cancels auto-reconfiguration, terminates
// every executor and closes the state store when WithStateStore opened
// one. Idempotent.
func (a *App) Stop() {
	if a.stopTicker != nil {
		select {
		case <-a.stopTicker:
			// already closed
		default:
			close(a.stopTicker)
			<-a.tickerDone
		}
	}
	a.live.Stop()
	if a.stateStore != nil {
		_ = a.stateStore.Close()
	}
}
