#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "mapping/mapper.hpp"
#include "report.hpp"

namespace perfbench {

/// compile_ht / compile_ll: cold CompilerSession::compile + simulate of the
/// five zoo models at paper resolution and the Table II GA budget.
void run_compile_workload(const RunArgs& args, pimcomp::PipelineMode mode,
                          WorkloadResult& out);

/// serve_fleet: a seeded request plan through pimcomp_router to a daemon
/// whose peer is a warm daemon, every cache tier fixed by construction.
void run_serve_workload(const RunArgs& args, WorkloadResult& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
