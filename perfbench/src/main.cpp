//===- perfbench/src/main.cpp - Repository benchmark entry point --------===//
//
// Part of the differential-register-allocation reproduction library.
//
// usage: perfbench --workload=batch_cold|serve_hot|serve_miss --seed=N
//                  --seconds=S --trace=0|1 --server-bin=PATH --out-dir=DIR
//                  [--corrupt-one]
//        perfbench --self-test
//
// Runs one workload and prints, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace=0, the per-layer metrics of a traced run with --trace=1.
// Exits 1 when any output fails its check, 2 on a command-line error.
// perfbench/run.py builds this binary and passes the paths.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <signal.h>

using namespace perfbench;

namespace {

/// Keeps every CPU busy at the lowest scheduling priority while a workload
/// runs. On a virtual machine an idle vCPU halts, and waking it again (a
/// server thread handing a request to a pool worker, a reply waking the
/// connection thread) waits for the hypervisor, which takes from
/// microseconds to milliseconds depending on other tenants' load. That
/// wait dominated the tail latency of the hit path and made it vary
/// threefold between runs. SCHED_IDLE threads yield the moment any normal
/// thread becomes runnable, so they take no measurable CPU from the
/// program; they only keep the vCPUs from halting.
class IdleSpinners {
public:
  explicit IdleSpinners(unsigned N) {
    for (unsigned Cpu = 0; Cpu != N; ++Cpu)
      Threads.emplace_back([this, Cpu] {
        sched_param P{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &P);
        cpu_set_t Set;
        CPU_ZERO(&Set);
        CPU_SET(Cpu, &Set);
        pthread_setaffinity_np(pthread_self(), sizeof Set, &Set);
        while (!Stop.load(std::memory_order_relaxed)) {
        }
      });
  }
  ~IdleSpinners() {
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
  }
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

bool parseArgs(int Argc, char **Argv, Options &O, bool &SelfTest) {
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Key, std::string &Out) {
      size_t N = std::strlen(Key);
      if (A.compare(0, N, Key) != 0)
        return false;
      Out = A.substr(N);
      return true;
    };
    std::string V;
    char *End = nullptr;
    if (Value("--workload=", V)) {
      O.Workload = V;
    } else if (Value("--seed=", V)) {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return false;
    } else if (Value("--seconds=", V)) {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0))
        return false;
    } else if (Value("--trace=", V)) {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (Value("--server-bin=", V)) {
      O.ServerBin = V;
    } else if (Value("--out-dir=", V)) {
      O.OutDir = V;
    } else if (A == "--corrupt-one") {
      O.CorruptOne = true;
    } else if (A == "--self-test") {
      SelfTest = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", A.c_str());
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool SelfTest = false;
  if (!parseArgs(Argc, Argv, O, SelfTest))
    return 2;
  signal(SIGPIPE, SIG_IGN);
  O.Nproc = std::max(1u, std::thread::hardware_concurrency());
  if (SelfTest)
    return runSelfTests(O);

  void (*Run)(const Options &, Report &) =
      O.Workload == "batch_cold"   ? runBatchCold
      : O.Workload == "serve_hot"  ? runServeHot
      : O.Workload == "serve_miss" ? runServeMiss
                                   : nullptr;
  if (!Run || O.OutDir.empty() ||
      (O.Workload != "batch_cold" && O.ServerBin.empty())) {
    std::fprintf(stderr, "perfbench: need --workload=batch_cold|serve_hot|"
                         "serve_miss, --out-dir and --server-bin\n");
    return 2;
  }
  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);

  Report R;
  try {
    IdleSpinners Spin(O.Nproc);
    Run(O, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: error: %s\n", E.what());
    return 1;
  }
  if (O.Trace)
    printLayerTable(R, O.Workload);
  R.printJson();
  return R.Correct ? 0 : 1;
}
