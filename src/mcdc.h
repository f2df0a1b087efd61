// Umbrella header: the full public API of the mcdc library.
//
//   #include "mcdc.h"
//
// pulls in the problem model, both of the paper's algorithms, the
// reference solvers, workloads, the simulator, and the analysis tools.
// Fine-grained headers remain available for faster builds.
#pragma once

// Problem model (paper §III).
#include "model/cost_model.h"
#include "model/pricing.h"
#include "model/request.h"
#include "model/schedule.h"
#include "model/schedule_validator.h"

// The paper's algorithms (§IV, §V).
#include "core/double_transfer.h"
#include "core/marginal_bounds.h"
#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "core/reductions.h"

// Reference and extension solvers.
#include "baselines/lookahead.h"
#include "baselines/offline_exact.h"
#include "baselines/offline_het_heuristic.h"
#include "baselines/offline_quadratic.h"
#include "baselines/offline_veeravalli.h"
#include "baselines/solve.h"

// Workloads and traces.
#include "workload/generators.h"
#include "workload/scenario_gen.h"
#include "workload/trace_io.h"

// Discrete-event simulation and online policies.
#include "sim/executor.h"
#include "sim/policies.h"
#include "sim/policy_runner.h"

// Scenario lab: network-time simulation and adaptive window policies.
#include "scenlab/adaptive.h"
#include "scenlab/event_queue.h"
#include "scenlab/network_sim.h"
#include "scenlab/scenario_config.h"
#include "scenlab/scenario_run.h"

// Observability: metrics registry, event tracing, profiling scopes.
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/scoped_timer.h"
#include "obs/sinks.h"

// Analysis and reporting.
#include "analysis/competitive.h"
#include "analysis/cost_breakdown.h"
#include "analysis/diagram.h"
#include "analysis/plan_repair.h"
#include "analysis/space_time_graph.h"

// Multi-item data service.
#include "service/data_service.h"

// Sharded concurrent streaming engine fronting the service.
#include "engine/engine_config.h"
#include "engine/engine_stats.h"
#include "engine/ingress.h"
#include "engine/streaming_engine.h"

// Classic capacity-driven paging (Table I baseline).
#include "paging/paging.h"
