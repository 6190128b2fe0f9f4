package p2psum

import (
	"p2psum/internal/experiments"
	"p2psum/internal/stats"
)

// Experiment harness re-exports: each runner regenerates one table or
// figure of the paper's evaluation (§6.2).
type (
	// ExperimentConfig carries the Table 3 simulation parameters.
	ExperimentConfig = experiments.Config
	// ResultTable is a plain-text rendering of one figure/table.
	ResultTable = stats.Table
	// Series is one curve of a figure.
	Series = stats.Series
)

// DefaultExperimentConfig returns the paper's Table 3 parameters.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig returns a down-scaled configuration for smoke runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// SimulationParameters renders Table 3.
func SimulationParameters(cfg ExperimentConfig) string { return experiments.ParamsTable(cfg) }

// RunMappingWalkthrough reproduces Tables 1 and 2 (the Patient relation
// and its grid-cell mapping).
func RunMappingWalkthrough() (string, error) { return experiments.MappingWalkthrough() }

// RunFigure4 regenerates "stale answers vs domain size" (worst case, one
// series per α).
func RunFigure4(cfg ExperimentConfig) (*ResultTable, error) { return experiments.Figure4(cfg) }

// RunFigure5 regenerates "false negatives vs domain size" (real-case
// estimation next to the worst case).
func RunFigure5(cfg ExperimentConfig) (*ResultTable, error) { return experiments.Figure5(cfg) }

// RunFigure6 regenerates "update cost vs domain size" for α ∈ {0.3, 0.8}.
func RunFigure6(cfg ExperimentConfig) (*ResultTable, error) { return experiments.Figure6(cfg) }

// RunFigure7 regenerates "query cost vs number of peers": SQ vs the
// centralized-index and pure-flooding baselines.
func RunFigure7(cfg ExperimentConfig) (*ResultTable, error) { return experiments.Figure7(cfg) }

// RunStorage regenerates the §6.1.1 storage model next to a measured
// hierarchy.
func RunStorage(cfg ExperimentConfig) (*ResultTable, error) { return experiments.StorageTable(cfg) }

// RunAblationMaintenance compares maintenance strategies (push/pull,
// merge-on-join, eager reconciliation).
func RunAblationMaintenance(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationMaintenance(cfg)
}

// RunAblationRoutingModes compares the §6.1.2 routing modes.
func RunAblationRoutingModes(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationRoutingModes(cfg)
}

// RunAblationWalks compares the selective walk of the find protocol with a
// blind random walk.
func RunAblationWalks(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationWalks(cfg)
}

// RunAblationConstructionTTL sweeps the §4.1 sumpeer broadcast TTL.
func RunAblationConstructionTTL(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationConstructionTTL(cfg)
}

// RunAblationUnavailable compares the two §4.3 alternatives for departed
// peers' descriptions (expire vs keep) in two-bit mode.
func RunAblationUnavailable(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationUnavailable(cfg)
}

// RunAblationArity sweeps the hierarchy arity cap (the B of the §6.1.1
// storage model) and reports shape, build cost and quality.
func RunAblationArity(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationArity(cfg)
}

// RunAblationLocality tests the §5.2.2 group-locality assumption: queries
// whose matches cluster around the originator terminate the inter-domain
// expansion earlier.
func RunAblationLocality(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.AblationLocality(cfg)
}

// RunCoverage tracks the Coverage of the virtual complete summary
// (Definition 4) over a churn horizon.
func RunCoverage(cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.CoverageExperiment(cfg)
}

// ChurnScenarioResult is the machine-readable outcome of the churn
// experiment (cmd/experiments serializes it as BENCH_churn.json).
type ChurnScenarioResult = experiments.ChurnResult

// RunChurnScenario replays workload session traces at several churn rates
// with the liveness layer active and reports coverage/staleness vs churn
// rate, plus the full per-rate time series for persisting.
func RunChurnScenario(cfg ExperimentConfig) (*ResultTable, *ChurnScenarioResult, error) {
	return experiments.ChurnExperiment(cfg)
}

// FaultsScenarioResult is the machine-readable outcome of the faults
// experiment (cmd/experiments serializes it as BENCH_faults.json).
type FaultsScenarioResult = experiments.FaultsResult

// RunFaultsScenario scripts the fault-scenario engine over the
// discrete-event overlay — partitions, flash crowds, adversarial gossip,
// silent summary-peer kills — at increasing severities and reports time-to-reconverge, repair traffic
// and the query-coverage dip per point.
func RunFaultsScenario(cfg ExperimentConfig) (*ResultTable, *FaultsScenarioResult, error) {
	return experiments.FaultsExperiment(cfg)
}

// ScaleScenarioResult is the machine-readable outcome of the scale sweep
// (cmd/experiments serializes it as BENCH_scale.json).
type ScaleScenarioResult = experiments.ScaleResult

// RunScaleScenario sweeps overlay size over the construct + reconcile
// workload on the discrete-event engine, verifying bit-identical reports
// across each size's repeats and recording wall-clock, memory and
// per-peer message cost.
func RunScaleScenario(cfg ExperimentConfig) (*ResultTable, *ScaleScenarioResult, error) {
	return experiments.ScaleExperiment(cfg)
}
