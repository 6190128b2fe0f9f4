package experiments

import (
	"fmt"
	"math/rand"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/scenario"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

// The faults experiment: the fault-scenario engine (internal/scenario)
// scripted over the discrete-event Network at increasing severities, one
// deterministic run per (scenario, severity) point. Three scenario
// families cover the §4.3 failure modes the tests pin qualitatively:
//
//   - partition: a fraction of every domain's members is severed from
//     its summary peer for a fixed split, then healed; measured are the
//     summary-freshness damage the split causes and the time and traffic
//     the reconciliation rings spend repairing it after the heal. This
//     scenario runs with gossip off: the discrete-event Network shares
//     one ground-truth view for the whole overlay, and partition-fed
//     suspicion on a shared view poisons both sides at once (the more
//     severe the cut, the faster every push freezes — an artifact, not a
//     measurement). The liveness-under-partition story is covered by the
//     scenario tests on the channel and TCP transports, where views are
//     per-process and refutation is real.
//   - flashcrowd: a fraction of the clients leaves gracefully, then
//     rejoins as one arrival burst (workload.BurstArrivals); measured is
//     the absorption time and traffic back to full coverage, with the
//     coverage dip sampled through the absorption window.
//   - adversary: waves of forged obituaries and conflicting domain
//     claims injected into live gossip; measured is the refutation
//     traffic, with the invariants that no suspicion is filed, no
//     election fires and no domain moves.
//
// Every run reports time-to-reconverge (virtual seconds until views match
// the scripted ground truth, coverage is back to 1, and every domain
// honors the freshness contract over its active membership), the repair
// traffic spent getting there, and the worst coverage sampled while the
// fault and its repair were live.

// FaultsPoint is one (scenario, severity) measurement.
type FaultsPoint struct {
	Scenario string `json:"scenario"`
	// Severity is the scenario's dial: fraction of members severed, crowd
	// fraction rejoining, or forged claims per wave.
	Severity float64 `json:"severity"`
	// TimeToReconvergeSec is the virtual time from the fault clearing to
	// reconvergence (views truthful, coverage 1, freshness repaired).
	TimeToReconvergeSec float64 `json:"time_to_reconverge_sec"`
	// RepairMsgs/RepairBytes is the total traffic spent between the fault
	// clearing and reconvergence.
	RepairMsgs  int64 `json:"repair_msgs"`
	RepairBytes int64 `json:"repair_bytes"`
	// CoverageDip is the lowest coverage sampled while the fault was live
	// (1 = no dip).
	CoverageDip float64 `json:"coverage_dip"`
	// Suspicions and Elections report the liveness layer's reaction:
	// suspicions filed (deduped by incarnation) and proactive promotions.
	// For the adversary scenario both must stay 0 — a nonzero value means
	// a forgery took hold.
	Suspicions      uint64 `json:"suspicions"`
	Elections       int    `json:"elections"`
	Reconciliations int    `json:"reconciliations"`
}

// FaultsResult is the machine-readable outcome of the faults experiment
// (serialized to BENCH_faults.json by cmd/experiments).
type FaultsResult struct {
	Peers   int   `json:"peers"`
	Domains int   `json:"domains"`
	Seed    int64 `json:"seed"`
	Machine
	Points []FaultsPoint `json:"points"`
}

// faultsFleet sizes the overlay: the quick configuration runs the 1000-peer
// smoke scale, the full configuration a 2500-peer overlay.
func faultsFleet(cfg Config) (peers, domains int) {
	if cfg.SimHours <= 3 {
		return 1000, 16
	}
	return 2500, 25
}

// faultsRun is one scripted scenario over a fresh overlay.
type faultsRun struct {
	engine *sim.Engine
	net    *p2p.Network
	sys    *core.System
	eng    *scenario.Engine
	sps    []p2p.NodeID
	n      int
	mods   *rand.Rand
	// dip tracks the lowest coverage sampled by the drive loops.
	dip float64
}

// newFaultsRun builds and constructs the overlay every faults point runs
// against: Barabási–Albert scale-free, proactive election armed, gossip
// piggyback per scenario (see the package comment on why the partition
// scenario runs gossip-off on the shared-view transport).
func newFaultsRun(cfg Config, n, domains int, seed int64, gossip bool) (*faultsRun, error) {
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, seed)
	sysCfg := core.DefaultConfig()
	// A fixed, eager freshness threshold: reconciliation must fire on the
	// residual staleness a heal leaves behind, whatever cfg.Alphas sweeps.
	sysCfg.Alpha = faultsAlpha
	sysCfg.GossipPiggyback = gossip
	sysCfg.ProactiveElection = true
	// Splits last less than the confirmation timeout: a partition must
	// degrade as an unconfirmed suspicion, not as a wave of deaths.
	sysCfg.SuspectTimeout = 2 * faultsSplitSec
	sys, err := core.NewSystem(net, sysCfg)
	if err != nil {
		return nil, err
	}
	sps := sys.ElectSummaryPeers(domains)
	if err := sys.Construct(); err != nil {
		return nil, err
	}
	net.Settle()
	return &faultsRun{
		engine: engine,
		net:    net,
		sys:    sys,
		eng:    scenario.New(sys),
		sps:    sps,
		n:      n,
		mods:   rand.New(rand.NewSource(seed + 7)),
		dip:    1,
	}, nil
}

// faultsSplitSec is how long a partition stays severed (virtual seconds).
const faultsSplitSec = 300

// faultsAlpha is the freshness threshold every faults run uses.
const faultsAlpha = 0.1

// faultsStepSec is the probe cadence while waiting for reconvergence: the
// driver advances the clock in steps, gossips a round, and re-checks.
const faultsStepSec = 20

// faultsDeadlineSec bounds the reconvergence wait per point.
const faultsDeadlineSec = 3600

// reconverged is the common convergence predicate: the view matches the
// scripted ground truth, every online node is covered by a domain, and
// every domain honors the freshness contract over its *active* membership
// — of the members that claim the domain (view claims, the ground truth
// queries route on), at most α may be stale or unknown at their summary
// peer. Abandoned seats of members that re-domained during the fault are
// dead weight pending eviction, not live staleness, so they don't count;
// below the α threshold no ring fires, by design.
func (r *faultsRun) reconverged() bool {
	if !r.eng.Converged() || r.sys.Coverage() < 1 {
		return false
	}
	for _, sp := range r.sys.SummaryPeers() {
		if !r.net.Online(sp) {
			continue
		}
		members := r.sys.DomainMembers(sp)
		if len(members) < 2 {
			continue // sp itself only — no contract to honor
		}
		cl := r.sys.Peer(sp).CooperationList()
		stale := 0
		for _, m := range members[1:] {
			if v, ok := cl.Get(m); !ok || v != core.Fresh {
				stale++
			}
		}
		if float64(stale)/float64(len(members)-1) > faultsAlpha {
			return false
		}
	}
	return true
}

// driveUntilReconverged advances virtual time in faultsStepSec steps —
// background modification load, gossip round, settle, probe — until the
// predicate holds or the deadline passes, and returns the virtual seconds
// elapsed. The background load matters: reconciliation rings are
// push-triggered, so staleness a fault left behind is only repaired when
// the next ordinary push tips the cooperation list over α.
func (r *faultsRun) driveUntilReconverged() (float64, error) {
	start := r.engine.Now()
	for !r.reconverged() {
		if float64(r.engine.Now()-start) > faultsDeadlineSec {
			return 0, fmt.Errorf("no reconvergence within %ds (converged %v, coverage %.3f)",
				faultsDeadlineSec, r.eng.Converged(), r.sys.Coverage())
		}
		r.markBackgroundMods()
		r.engine.RunUntil(r.engine.Now() + faultsStepSec)
		r.sys.GossipRound()
		r.sampleDip()
	}
	return float64(r.engine.Now() - start), nil
}

// sampleDip folds the current coverage into the run's minimum.
func (r *faultsRun) sampleDip() {
	if c := r.sys.Coverage(); c < r.dip {
		r.dip = c
	}
}

// markBackgroundMods marks a small random batch of local summaries
// modified — the steady-state load every deployment has (MarkModified
// no-ops for offline nodes).
func (r *faultsRun) markBackgroundMods() {
	for i := 0; i < r.n/50; i++ {
		r.sys.MarkModified(p2p.NodeID(r.mods.Intn(r.n)))
	}
}

// measureRepair samples traffic totals before/after fn and fills the
// point's repair and reaction counters.
func (r *faultsRun) measureRepair(p *FaultsPoint, fn func() (float64, error)) error {
	msgs0 := r.net.Counter().Total()
	bytes0 := r.net.Bytes().Total()
	ttr, err := fn()
	if err != nil {
		return fmt.Errorf("%s severity %g: %w", p.Scenario, p.Severity, err)
	}
	p.TimeToReconvergeSec = ttr
	p.RepairMsgs = r.net.Counter().Total() - msgs0
	p.RepairBytes = r.net.Bytes().Total() - bytes0
	p.Suspicions = r.net.Liveness().Suspicions()
	p.Elections = r.sys.Stats().Elections
	p.Reconciliations = r.sys.Stats().Reconciliations
	return nil
}

// spokesBySP groups the online clients of each domain.
func (r *faultsRun) spokesBySP() map[p2p.NodeID][]p2p.NodeID {
	out := make(map[p2p.NodeID][]p2p.NodeID)
	for id := 0; id < r.n; id++ {
		nid := p2p.NodeID(id)
		if sp := r.sys.DomainOf(nid); sp >= 0 && sp != nid {
			out[sp] = append(out[sp], nid)
		}
	}
	return out
}

// runPartitionPoint severs a fraction of every domain's members from the
// rest of the overlay for faultsSplitSec, keeps modification load running
// so the drop paths fire, then heals and measures the repair.
func runPartitionPoint(cfg Config, n, domains int, frac float64) (FaultsPoint, error) {
	pt := FaultsPoint{Scenario: "partition", Severity: frac}
	r, err := newFaultsRun(cfg, n, domains, cfg.Seed+int64(10000*frac), false)
	if err != nil {
		return pt, err
	}
	// The severed side: the last ceil(frac*len) members of every domain,
	// cut together (a correlated infrastructure failure, not independent
	// node churn).
	var severed, kept []p2p.NodeID
	bySP := r.spokesBySP()
	for _, sp := range r.sps {
		members := bySP[sp]
		k := int(frac * float64(len(members)))
		severed = append(severed, members[len(members)-k:]...)
		kept = append(kept, sp)
		kept = append(kept, members[:len(members)-k]...)
	}
	r.eng.Partition(kept, severed)

	// Modification pressure during the split: the kept side keeps
	// reconciling; severed members' pushes die at the cut and the ring
	// token skips them, marking their seats Stale — the freshness damage
	// the post-heal repair is measured against.
	for t := 0; t < faultsSplitSec; t += faultsStepSec {
		r.markBackgroundMods()
		r.engine.RunUntil(r.engine.Now() + faultsStepSec)
		r.sys.GossipRound()
		r.sampleDip()
	}

	r.eng.Heal()
	err = r.measureRepair(&pt, r.driveUntilReconverged)
	pt.CoverageDip = r.dip
	return pt, err
}

// runFlashCrowdPoint drains a fraction of the clients, then rejoins them
// as one shaped burst and measures the absorption.
func runFlashCrowdPoint(cfg Config, n, domains int, frac float64) (FaultsPoint, error) {
	pt := FaultsPoint{Scenario: "flashcrowd", Severity: frac}
	r, err := newFaultsRun(cfg, n, domains, cfg.Seed+int64(20000*frac), true)
	if err != nil {
		return pt, err
	}
	isSP := make(map[p2p.NodeID]bool, len(r.sps))
	for _, sp := range r.sps {
		isSP[sp] = true
	}
	var crowd []p2p.NodeID
	want := int(frac * float64(n))
	for id := 0; id < n && len(crowd) < want; id++ {
		if !isSP[p2p.NodeID(id)] {
			crowd = append(crowd, p2p.NodeID(id))
		}
	}
	for _, id := range crowd {
		r.eng.Leave(id)
	}
	// Deliver the goodbyes (events, not future timers) before the burst.
	r.engine.RunUntil(r.engine.Now() + 1)

	// The flash crowd: every departed client rejoins within a 60-second
	// arrival burst, front-loaded (workload.BurstArrivals). The dip is
	// sampled through the absorption window: rejoined nodes that must walk
	// for a domain are online but uncovered until the walk lands.
	offs := workload.BurstArrivals(rand.New(rand.NewSource(cfg.Seed+8)), len(crowd), 60)
	start := r.engine.Now() + 1
	for i, id := range crowd {
		id := id
		r.engine.At(start+offs[i], func() { r.eng.Join(id) })
	}
	err = r.measureRepair(&pt, func() (float64, error) {
		for r.engine.Now() < start+61 {
			r.engine.RunUntil(r.engine.Now() + faultsStepSec)
			r.sampleDip()
		}
		return r.driveUntilReconverged()
	})
	pt.CoverageDip = r.dip
	return pt, err
}

// runAdversaryPoint injects waves of forged obituaries and conflicting
// domain claims and measures the refutation.
func runAdversaryPoint(cfg Config, n, domains, perWave int) (FaultsPoint, error) {
	pt := FaultsPoint{Scenario: "adversary", Severity: float64(perWave)}
	r, err := newFaultsRun(cfg, n, domains, cfg.Seed+int64(30000+perWave), true)
	if err != nil {
		return pt, err
	}
	isSP := make(map[p2p.NodeID]bool, len(r.sps))
	for _, sp := range r.sps {
		isSP[sp] = true
	}
	// The adversary is a compromised client.
	var src p2p.NodeID
	for id := 0; id < n; id++ {
		if !isSP[p2p.NodeID(id)] {
			src = p2p.NodeID(id)
			break
		}
	}
	adv := scenario.NewAdversary(r.sys, src)
	arng := rand.New(rand.NewSource(cfg.Seed + 9))
	const waves = 3
	// The repair window opens before the first forgery: the refutation
	// traffic (bounced merges, reply gossip) IS the cost being measured.
	err = r.measureRepair(&pt, func() (float64, error) {
		for w := 0; w < waves; w++ {
			for i := 0; i < perWave; i++ {
				victim := p2p.NodeID(arng.Intn(n))
				target := p2p.NodeID(arng.Intn(n))
				if i%3 == 2 {
					// Every third forgery drags a victim into a foreign domain.
					adv.ClaimDomain(target, victim, src)
				} else {
					adv.ForgeDeath(target, victim)
				}
			}
			r.engine.RunUntil(r.engine.Now() + faultsStepSec)
			r.sys.GossipRound()
			r.sampleDip()
		}
		return r.driveUntilReconverged()
	})
	pt.CoverageDip = r.dip
	return pt, err
}

// faultsSeverities returns the per-scenario severity sweeps.
func faultsSeverities() (partition, flashcrowd []float64, adversary []int) {
	return []float64{0.125, 0.25, 0.5},
		[]float64{0.25, 0.5, 0.75},
		[]int{8, 32, 128}
}

// FaultsExperiment runs the three scenario families across their severity
// sweeps, one deterministic simulation per point across cfg.Workers.
func FaultsExperiment(cfg Config) (*stats.Table, *FaultsResult, error) {
	n, domains := faultsFleet(cfg)
	partFracs, crowdFracs, advWaves := faultsSeverities()
	res := &FaultsResult{
		Peers:   n,
		Domains: domains,
		Seed:    cfg.Seed,
		Machine: thisMachine(),
		Points:  make([]FaultsPoint, len(partFracs)+len(crowdFracs)+len(advWaves)),
	}
	runners := make([]func() (FaultsPoint, error), 0, len(res.Points))
	for _, f := range partFracs {
		f := f
		runners = append(runners, func() (FaultsPoint, error) { return runPartitionPoint(cfg, n, domains, f) })
	}
	for _, f := range crowdFracs {
		f := f
		runners = append(runners, func() (FaultsPoint, error) { return runFlashCrowdPoint(cfg, n, domains, f) })
	}
	for _, w := range advWaves {
		w := w
		runners = append(runners, func() (FaultsPoint, error) { return runAdversaryPoint(cfg, n, domains, w) })
	}
	err := forEach(cfg.Workers, len(runners), func(i int) error {
		var runErr error
		res.Points[i], runErr = runners[i]()
		return runErr
	})
	if err != nil {
		return nil, nil, err
	}

	ttr := &stats.Series{Name: "reconverge s"}
	dip := &stats.Series{Name: "coverage dip"}
	msgs := &stats.Series{Name: "repair msg/node"}
	kb := &stats.Series{Name: "repair KB/node"}
	for i, p := range res.Points {
		x := float64(i)
		ttr.Add(x, p.TimeToReconvergeSec)
		dip.Add(x, p.CoverageDip)
		msgs.Add(x, float64(p.RepairMsgs)/float64(n))
		kb.Add(x, float64(p.RepairBytes)/1024/float64(n))
	}
	t := stats.NewTable(
		fmt.Sprintf("Faults: partition / flash crowd / adversarial gossip (n=%d, %d domains)", n, domains),
		"point", ttr, dip, msgs, kb)
	t.Decimal = 3
	for i, p := range res.Points {
		t.AddNote("point %d: %s severity %g — %d suspicions, %d elections, %d reconciliations",
			i, p.Scenario, p.Severity, p.Suspicions, p.Elections, p.Reconciliations)
	}
	t.AddNote("partition severity: fraction of each domain severed for %ds (gossip off: shared-view suspicion is an artifact there; liveness under partition is covered by the transport-level scenario tests); flashcrowd: client fraction rejoining in one 60s burst; adversary: forged claims per wave (3 waves)", faultsSplitSec)
	t.AddNote("reconvergence: views match scripted ground truth, coverage 1, every domain within the freshness contract over its active membership")
	return t, res, nil
}
