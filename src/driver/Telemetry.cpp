//===- driver/Telemetry.cpp - Batch span timeline -------------------------===//

#include "driver/Telemetry.h"

#include <algorithm>

using namespace dra;

uint64_t Telemetry::steadyNowNs() { return steadyClockNs(); }

Telemetry::Telemetry() : OriginNs(steadyClockNs()) {}

uint64_t Telemetry::nowUs() const { return toRelativeUs(steadyClockNs()); }

uint64_t Telemetry::toRelativeUs(uint64_t SteadyNs) const {
  return SteadyNs <= OriginNs ? 0 : (SteadyNs - OriginNs) / 1000;
}

void Telemetry::recordSpan(TraceSpan E) {
  if (!E.OsTid)
    E.OsTid = osThreadId(); // recordSpan runs on the recording thread
  std::lock_guard<std::mutex> Lock(Mtx);
  Events.push_back(std::move(E));
}

void Telemetry::setProcessName(std::string Name) {
  std::lock_guard<std::mutex> Lock(Mtx);
  ProcessName = std::move(Name);
}

std::vector<TraceSpan> Telemetry::events() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Events;
}

std::map<std::string, Telemetry::StageStats>
Telemetry::stageStats(const char *Category) const {
  std::map<std::string, StageStats> Stats;
  for (const TraceSpan &E : events()) {
    if (Category && (!E.Category || std::string(Category) != E.Category))
      continue;
    StageStats &S = Stats[E.Name];
    if (S.Count == 0) {
      S.MinUs = E.DurUs;
      S.MaxUs = E.DurUs;
    } else {
      S.MinUs = std::min(S.MinUs, E.DurUs);
      S.MaxUs = std::max(S.MaxUs, E.DurUs);
    }
    ++S.Count;
    S.TotalUs += E.DurUs;
  }
  return Stats;
}

void Telemetry::writeChromeTrace(std::ostream &OS) const {
  const uint64_t Pid = osProcessId();
  std::vector<TraceSpan> Evs = events();
  std::string PName;
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    PName = ProcessName;
  }
  // Metadata first: the real process, and one named row per OS thread
  // (displayed as its pool worker id). Real pids/tids keep merged
  // multi-process traces from collapsing onto one synthetic row.
  ChromeTraceWriter W(OS);
  W.processName(Pid, PName);
  std::map<uint64_t, unsigned> TidWorkers;
  for (const TraceSpan &E : Evs)
    TidWorkers.emplace(E.OsTid ? E.OsTid : E.Tid, E.Tid);
  for (const auto &[Tid, Worker] : TidWorkers)
    W.threadName(Pid, Tid, "worker-" + std::to_string(Worker));
  for (const TraceSpan &E : Evs)
    W.completeEvent(Pid, E.OsTid ? E.OsTid : E.Tid, E.Name,
                    E.Category ? E.Category : "span", double(E.BeginUs),
                    double(E.DurUs), E.Args);
  W.finish();
}
