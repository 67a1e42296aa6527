//===- driver/BatchCompiler.cpp - Parallel pipeline driver ----------------===//

#include "driver/BatchCompiler.h"

#include "adt/Rng.h"

#include <cassert>

using namespace dra;

BatchCompiler::BatchCompiler(const BatchOptions &O) : Opts(O), Pool(O.Jobs) {}

namespace {

/// Records the spans of one finished task: the enclosing "task" span, one
/// "stage" span per pipeline stage (Depth-0) and one "substage" span per
/// nested algorithm round (Depth > 0). Substages keep their own category
/// so Telemetry::stageStats("stage") still aggregates top-level stages
/// only. Per-task counters are flushed through PipelineConfig::Metrics.
void recordTask(Telemetry &T, const Function &Src, size_t Index,
                const PipelineResult &R, uint64_t TaskBeginNs,
                uint64_t TaskEndNs) {
  unsigned Tid = ThreadPool::currentWorker();

  TraceSpan Task;
  Task.Name = Src.Name.empty() ? "fn" + std::to_string(Index) : Src.Name;
  Task.Category = "task";
  Task.BeginUs = T.toRelativeUs(TaskBeginNs);
  Task.DurUs = T.toRelativeUs(TaskEndNs) - Task.BeginUs;
  Task.Tid = Tid;
  Task.Args = {{"index", static_cast<double>(Index)},
               {"insts", static_cast<double>(R.NumInsts)},
               {"spill_insts", static_cast<double>(R.SpillInsts)},
               {"set_last_regs", static_cast<double>(R.SetLastRegs)},
               {"code_bytes", static_cast<double>(R.CodeBytes)}};
  T.recordSpan(std::move(Task));

  for (const StageSpan &S : R.Spans) {
    TraceSpan E;
    E.Name = S.Stage;
    E.Category = S.Depth == 0 ? "stage" : "substage";
    E.BeginUs = T.toRelativeUs(S.BeginNs);
    E.DurUs = T.toRelativeUs(S.EndNs) - E.BeginUs;
    E.Tid = Tid;
    T.recordSpan(std::move(E));
  }
}

} // namespace

std::vector<PipelineResult>
BatchCompiler::run(const std::vector<Function> &Functions,
                   const PipelineConfig &Config) {
  std::vector<PipelineConfig> Configs(Functions.size(), Config);
  return run(Functions, Configs);
}

std::vector<PipelineResult>
BatchCompiler::run(const std::vector<Function> &Functions,
                   const std::vector<PipelineConfig> &Configs) {
  assert(Functions.size() == Configs.size() &&
         "one config per function required");
  std::vector<PipelineResult> Results(Functions.size());
  Pool.parallelFor(Functions.size(), [&](size_t I) {
    PipelineConfig C = Configs[I];
    if (Opts.PerTaskSeeds)
      C.Remap.Seed = Rng::taskSeed(C.Remap.Seed, I);
    if (Opts.Cache)
      C.Cache = Opts.Cache;
    uint64_t Begin = steadyClockNs();
    Results[I] = runPipeline(Functions[I], C);
    if (Opts.Telem)
      recordTask(*Opts.Telem, Functions[I], I, Results[I], Begin,
                 steadyClockNs());
  });
  return Results;
}
