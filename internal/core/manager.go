package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

// ConfigStore persists routing configurations across manager restarts.
// The paper's manager "saves all routing configurations to stable storage
// before starting reconfiguration" for fault tolerance (§3.4); the store
// therefore distinguishes a *saved* configuration (written before the
// deployment starts) from a *deployed* one (marked only after every
// instance acknowledged and migrated). Load returns the latest deployed
// configuration, so restart recovery never resurrects a configuration
// that failed to go live.
type ConfigStore interface {
	// Save persists one configuration version ahead of its deployment.
	Save(version uint64, tables map[string]*routing.Table) error
	// MarkDeployed records that a previously saved version went live. It
	// is an error to mark a version that was never saved.
	MarkDeployed(version uint64) error
	// Load returns the highest version marked deployed (ok == false when
	// none).
	Load() (version uint64, tables map[string]*routing.Table, ok bool, err error)
}

// MemoryStore is an in-process ConfigStore, the default. Safe for
// concurrent use.
type MemoryStore struct {
	mu       sync.Mutex
	saved    map[uint64]map[string]*routing.Table
	deployed uint64
	live     bool
}

// Save implements ConfigStore.
func (m *MemoryStore) Save(version uint64, tables map[string]*routing.Table) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.saved == nil {
		m.saved = make(map[uint64]map[string]*routing.Table)
	}
	m.saved[version] = cloneTables(tables)
	return nil
}

// MarkDeployed implements ConfigStore.
func (m *MemoryStore) MarkDeployed(version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.saved[version]; !ok {
		return fmt.Errorf("config store: version %d was never saved", version)
	}
	m.deployed = version
	m.live = true
	return nil
}

// Load implements ConfigStore.
func (m *MemoryStore) Load() (uint64, map[string]*routing.Table, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.live {
		return 0, nil, false, nil
	}
	return m.deployed, cloneTables(m.saved[m.deployed]), true, nil
}

// FileStore persists configurations as JSON files in a directory, one
// file per version plus a "latest" pointer.
type FileStore struct {
	// Dir is the target directory (created on first save).
	Dir string
}

type storedConfig struct {
	Version uint64                    `json:"version"`
	Tables  map[string]map[string]int `json:"tables"`
}

// Save implements ConfigStore: it writes the version file but not the
// "latest" pointer, which only MarkDeployed advances. A crash between the
// two leaves "latest" at the previous deployed configuration — exactly
// what a restarted manager must recover.
func (f *FileStore) Save(version uint64, tables map[string]*routing.Table) error {
	if err := os.MkdirAll(f.Dir, 0o755); err != nil {
		return fmt.Errorf("config store: %w", err)
	}
	cfg := storedConfig{Version: version, Tables: make(map[string]map[string]int, len(tables))}
	for op, t := range tables {
		cfg.Tables[op] = t.Assign
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("config store: encode: %w", err)
	}
	if err := os.WriteFile(f.versionPath(version), data, 0o644); err != nil {
		return fmt.Errorf("config store: %w", err)
	}
	return nil
}

// MarkDeployed implements ConfigStore: it points "latest" at the saved
// version file.
func (f *FileStore) MarkDeployed(version uint64) error {
	data, err := os.ReadFile(f.versionPath(version))
	if os.IsNotExist(err) {
		return fmt.Errorf("config store: version %d was never saved", version)
	}
	if err != nil {
		return fmt.Errorf("config store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(f.Dir, "latest.json"), data, 0o644); err != nil {
		return fmt.Errorf("config store: %w", err)
	}
	return nil
}

func (f *FileStore) versionPath(version uint64) string {
	return filepath.Join(f.Dir, fmt.Sprintf("config-%06d.json", version))
}

// Load implements ConfigStore.
func (f *FileStore) Load() (uint64, map[string]*routing.Table, bool, error) {
	data, err := os.ReadFile(filepath.Join(f.Dir, "latest.json"))
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("config store: %w", err)
	}
	var cfg storedConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, nil, false, fmt.Errorf("config store: decode: %w", err)
	}
	tables := make(map[string]*routing.Table, len(cfg.Tables))
	for op, assign := range cfg.Tables {
		tables[op] = &routing.Table{Version: cfg.Version, Assign: assign}
	}
	return cfg.Version, tables, true, nil
}

func cloneTables(tables map[string]*routing.Table) map[string]*routing.Table {
	out := make(map[string]*routing.Table, len(tables))
	for op, t := range tables {
		out[op] = t.Clone()
	}
	return out
}

// ManagerOptions configure a Manager.
type ManagerOptions struct {
	// Optimizer options (alpha, max edges, seed, ...).
	Optimizer OptimizerOptions
	// Store persists configurations; nil selects an in-memory store.
	Store ConfigStore
}

// Manager is the coordinator of §3.3-3.4: it collects key-pair statistics
// from the running application, computes optimized routing tables, and
// deploys them with the online reconfiguration protocol. Not safe for
// concurrent use.
type Manager struct {
	eng    *engine.Live
	topo   *topology.Topology
	place  *cluster.Placement
	opt    *Optimizer
	store  ConfigStore
	tables map[string]*routing.Table
}

// NewManager returns a manager driving the given live engine.
func NewManager(eng *engine.Live, topo *topology.Topology, place *cluster.Placement, opts ManagerOptions) (*Manager, error) {
	opt, err := NewOptimizer(topo, place, opts.Optimizer)
	if err != nil {
		return nil, err
	}
	store := opts.Store
	if store == nil {
		store = &MemoryStore{}
	}
	return &Manager{
		eng:    eng,
		topo:   topo,
		place:  place,
		opt:    opt,
		store:  store,
		tables: make(map[string]*routing.Table),
	}, nil
}

// Candidate is a computed-but-not-deployed configuration: the tables, the
// optimizer's plan and the estimated impact of deploying it instead of
// keeping the current configuration. The control plane evaluates
// candidates against its hysteresis rules before committing to a deploy.
type Candidate struct {
	Tables map[string]*routing.Table
	Plan   *Plan
	Impact Impact
	// Stats is the statistics window the candidate was computed from;
	// the control plane's hot-key splitter reads per-key heat from it.
	Stats []engine.PairStat
	// Splits is the engine's split set at computation time; those keys
	// are pinned in Tables and excluded from the key graph.
	Splits []engine.SplitKeyInfo
}

// Candidate runs the measurement half of Algorithm 1: collect statistics
// (resetting the sketch window), compute candidate routing tables and
// estimate the deployment impact — without deploying anything. The window
// reset happens regardless of what the caller decides, so a skipped
// candidate is re-evaluated on fresh data next round; this guards against
// the "ephemeral correlations" the paper's conclusion warns about.
func (m *Manager) Candidate() (*Candidate, error) {
	stats := m.eng.CollectPairStats()
	splits := m.eng.SplitSnapshot()
	tables, plan, err := m.opt.ComputeTablesSplit(stats, splits)
	if err != nil {
		return nil, err
	}
	// Nested partitions are label-unstable across windows: align the
	// candidate's cluster labels with the deployed configuration before
	// estimating impact, so a cosmetic cluster swap never masquerades as
	// a full cross-cluster migration.
	m.alignClusters(m.tables, tables)
	return &Candidate{
		Tables: tables,
		Plan:   plan,
		Impact: m.opt.EstimateImpact(stats, m.tables, tables),
		Stats:  stats,
		Splits: splits,
	}, nil
}

// DeployCandidate persists and rolls out a previously computed candidate.
func (m *Manager) DeployCandidate(c *Candidate) error {
	return m.deploy(c.Tables, c.Plan)
}

// Reconfigure executes one full round of Algorithm 1: collect statistics
// (resetting the sketches), compute new routing tables, persist them, and
// deploy them online with state migration. It returns the optimizer's
// plan for the new configuration.
func (m *Manager) Reconfigure() (*Plan, error) {
	c, err := m.Candidate()
	if err != nil {
		return nil, err
	}
	if err := m.DeployCandidate(c); err != nil {
		return nil, err
	}
	return c.Plan, nil
}

// ReconfigureIfWorthwhile computes a candidate configuration and deploys
// it only when the impact estimator predicts the locality saving to
// amortize the migration cost (costPerKey tuple transfers per migrated
// key and statistics period). deployed reports the decision. Whatever the
// decision, the statistics sketches restart a new window (see Candidate).
func (m *Manager) ReconfigureIfWorthwhile(costPerKey float64) (plan *Plan, impact Impact, deployed bool, err error) {
	c, err := m.Candidate()
	if err != nil {
		return nil, Impact{}, false, err
	}
	if !c.Impact.Worthwhile(costPerKey) {
		return c.Plan, c.Impact, false, nil
	}
	if err := m.DeployCandidate(c); err != nil {
		return nil, c.Impact, false, err
	}
	return c.Plan, c.Impact, true, nil
}

// Recover loads the latest deployed configuration from the store and
// re-deploys it to the engine, completing the §3.4 fault-tolerance story:
// a restarted manager resumes from the tables that were actually live,
// not from a candidate that never finished deploying. There is no state
// to migrate — a fresh engine starts empty — so the recovery is a pure
// routing-table rollout. ok reports whether a configuration was found.
func (m *Manager) Recover() (version uint64, ok bool, err error) {
	version, tables, ok, err := m.store.Load()
	if err != nil || !ok {
		return 0, false, err
	}
	if err := m.eng.Reconfigure(engine.ReconfigPlan{Tables: tables}); err != nil {
		return 0, false, fmt.Errorf("core: re-deploy recovered configuration: %w", err)
	}
	m.tables = tables
	// Future candidates must supersede the recovered version.
	m.opt.EnsureVersion(version)
	return version, true, nil
}

// deploy rolls out an optimizer configuration: the state moves are the
// table diff against the deployed configuration, stateful operators only.
func (m *Manager) deploy(tables map[string]*routing.Table, plan *Plan) error {
	moves := make(map[string][]engine.KeyMove)
	for _, op := range unionKeys(m.tables, tables) {
		if opr := m.topo.Operator(op); opr == nil || !opr.Stateful {
			continue
		}
		if mv := DiffTables(m.tables[op], tables[op], op, m.place.Parallelism(op)); len(mv) > 0 {
			moves[op] = mv
		}
	}
	return m.rollout(plan.Version, tables, &engine.ReconfigPlan{Tables: tables, Moves: moves})
}

// rollout is the one way a configuration becomes the deployed one. It is
// saved to stable storage before anything is installed (§3.4), but it
// becomes the recovery target only after the engine accepted it: marking
// it deployed first would let a restart resurrect a configuration that
// never went live. With a ReconfigPlan the engine installs the tables
// through the §3.4 protocol, migrating the plan's moves; with nil the
// caller installs them itself (failure repair: a dead server cannot
// acknowledge a propagation wave) and the manager only keeps the books.
func (m *Manager) rollout(version uint64, tables map[string]*routing.Table, via *engine.ReconfigPlan) error {
	if err := m.store.Save(version, tables); err != nil {
		return fmt.Errorf("core: persist configuration v%d: %w", version, err)
	}
	if via != nil {
		if err := m.eng.Reconfigure(*via); err != nil {
			return err
		}
	}
	m.tables = tables
	if err := m.store.MarkDeployed(version); err != nil {
		return fmt.Errorf("core: mark configuration v%d deployed: %w", version, err)
	}
	return nil
}

// rolloutPlanned rolls out tables computed outside the optimizer — a
// rescale or a repair — under a fresh version, so they supersede the
// last optimized configuration and are superseded by the next one. moves
// are the planner's own (a minimal-movement plan already knows them, so
// there is no DiffTables pass); reconfigure selects the engine rollout.
func (m *Manager) rolloutPlanned(tables map[string]*routing.Table, moves map[string][]engine.KeyMove, reconfigure bool) (uint64, error) {
	version := m.opt.NextVersion()
	adopted := cloneTables(tables)
	for _, t := range adopted {
		t.Version = version
	}
	var via *engine.ReconfigPlan
	if reconfigure {
		via = &engine.ReconfigPlan{Tables: adopted, Moves: moves}
	}
	return version, m.rollout(version, adopted, via)
}

// Tables returns a copy of the currently deployed routing tables.
func (m *Manager) Tables() map[string]*routing.Table { return cloneTables(m.tables) }

// SetActiveServers forwards the elastic membership to the optimizer
// (ascending; nil restores full capacity), so every future candidate
// assigns keys to active servers only.
func (m *Manager) SetActiveServers(active []int) { m.opt.SetActiveServers(active) }

// Levels returns the tier list the optimizer's partitioner follows (see
// Optimizer.Levels); nil means it partitions flat.
func (m *Manager) Levels() [][]int { return m.opt.Levels() }

// Rescale plans and deploys one membership change: from and to are the
// usable-server vectors before and after it (PlanInput.From/To), and
// maxMoves caps the voluntary moves toward joining servers (<= 0:
// unbounded). Future candidates partition over the new membership; the
// minimal-movement plan is computed from the engine's retained
// statistics, keyed state and split set against the deployed tables, and
// rolled out through the same §3.4 protocol as an optimizer deployment —
// every leaving server is still attached and participates. Returns the
// plan and the version it was deployed as.
func (m *Manager) Rescale(from, to []bool, maxMoves int) (*RescalePlan, uint64, error) {
	var usable []int
	for s, ok := range to {
		if ok {
			usable = append(usable, s)
		}
	}
	if len(usable) == len(to) {
		usable = nil // full capacity
	}
	m.opt.SetActiveServers(usable)
	plan, err := PlanRescale(PlanInput{
		Place:       m.place,
		From:        from,
		To:          to,
		Tables:      m.tables,
		Stats:       m.eng.PeekPairStats(),
		Splits:      m.eng.SplitSnapshot(),
		ExtraKeys:   m.eng.StatefulKeys(),
		OwnerOf:     m.eng.OwnerOf,
		StatefulOps: m.eng.StatefulOps(),
		Seed:        m.opt.opts.Seed,
		MaxMoves:    maxMoves,
	})
	if err != nil {
		return nil, 0, err
	}
	version, err := m.rolloutPlanned(plan.Tables, plan.Moves, true)
	if err != nil {
		return nil, 0, fmt.Errorf("core: deploy rescale: %w", err)
	}
	return plan, version, nil
}

// ApplyRepair adopts failure-recovery routing tables as the deployed
// configuration, outside the planned reconfiguration protocol. They
// become the manager's deployed view — so the next optimization diffs
// against the post-recovery assignment instead of computing bogus
// migrations from dead instances. The caller installs the same tables
// into the engine (engine.UpdateTables).
func (m *Manager) ApplyRepair(tables map[string]*routing.Table) (uint64, error) {
	return m.rolloutPlanned(tables, nil, false)
}
