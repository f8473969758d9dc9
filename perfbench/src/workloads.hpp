// The four perfbench workloads. Each runs its rank threads in one
// par::run_world, sets its state up kSetupRepeats times, measures for
// Options::seconds, checks its outputs and returns both metric sets.
#pragma once

#include "harness.hpp"

namespace perfbench {

Outcome run_spgemm_insert(const Options& opt);
Outcome run_spgemm_general(const Options& opt);
Outcome run_ingest_triangles(const Options& opt);
Outcome run_ingest_serve(const Options& opt);

}  // namespace perfbench
