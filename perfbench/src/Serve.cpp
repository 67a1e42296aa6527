//===- perfbench/src/Serve.cpp - serve_hot and serve_miss workloads -----===//
//
// Part of the differential-register-allocation reproduction library.
//
// Both workloads drive a spawned dra-server child over the dra-req-v1
// protocol from one thread (LoadGen.h), with at most nproc connections
// and a fixed-rate open-loop schedule:
//
//  * serve_hot  — every timed request is a memory-tier cache hit, so the
//                 protocol, IR parse, cache key, probe and result
//                 (de)serialization are the whole cost.
//  * serve_miss — every request is a never-seen function (a compile on
//                 the remap floor, a quarter of them portfolio races),
//                 stored to both cache tiers of a fresh server.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "LoadGen.h"

#include "adt/Rng.h"
#include "driver/Json.h"
#include "driver/ResultCache.h"
#include "driver/Trace.h"
#include "ir/Parser.h"
#include "server/Protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dra;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

//===----------------------------------------------------------------------===//
// Workload shape
//===----------------------------------------------------------------------===//

/// serve_hot: a small working set (24 functions x 3 schemes, well inside
/// the 64 MiB memory tier) under zipf(1.0) popularity at a rate far below
/// the hit path's capacity, so latency is service time, not queueing.
constexpr size_t HotFuncs = 32;
constexpr size_t HotMinInsts = 200, HotMaxInsts = 230;
constexpr double HotRate = 500; // requests / s
constexpr double HotZipf = 1.0;

/// serve_miss: small functions (the remap stage's per-function floor)
/// at about a quarter of the server's miss capacity on four cores, so
/// arrivals queue now and then without a growing backlog.
constexpr size_t MissMinInsts = 180, MissMaxInsts = 260;
constexpr double MissRate = 10;

const Scheme ServedSchemes[] = {Scheme::Remap, Scheme::Select,
                                Scheme::Coalesce};

/// How long a phase may run past its last due time before the requests
/// still outstanding count as failed.
constexpr uint64_t PhaseTimeoutNs = 60ull * 1000 * 1000 * 1000;

//===----------------------------------------------------------------------===//
// The dra-server child
//===----------------------------------------------------------------------===//

class ServerProcess {
public:
  /// \p DiskTier adds a fresh, empty --cache-dir (removed at stop()).
  ServerProcess(const Options &O, std::vector<std::string> Extra,
                bool DiskTier)
      : Opts(O), Extra(std::move(Extra)) {
    static unsigned Seq = 0;
    Base = O.OutDir + "/srv-" + std::to_string(getpid()) + "-" +
           std::to_string(Seq++);
    if (DiskTier)
      this->Extra.push_back("--cache-dir=" + cacheDir());
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  std::string socketPath() const { return Base + ".sock"; }
  std::string metricsPath() const { return Base + ".metrics.json"; }
  std::string cacheDir() const { return Base + ".cache"; }

  /// Spawns the server and waits until it accepts a connection.
  void start() {
    std::vector<std::string> Args = {Opts.ServerBin,
                                     "--socket=" + socketPath(),
                                     "--metrics-out=" + metricsPath()};
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    std::string Log = Opts.OutDir + "/dra-server.log";
    Pid = fork();
    if (Pid < 0)
      throw std::runtime_error("fork failed");
    if (Pid == 0) {
      int Fd = open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0) {
        dup2(Fd, 1);
        dup2(Fd, 2);
      }
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    for (int Tries = 0; Tries != 30000; ++Tries) {
      int Fd = connect();
      if (Fd >= 0) {
        ::close(Fd);
        return;
      }
      int St = 0;
      if (waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        throw std::runtime_error("dra-server exited during start-up; see " +
                                 Log);
      }
      usleep(1000);
    }
    throw std::runtime_error("dra-server did not accept connections");
  }

  int connect() const { return connectUnixSocket(socketPath()); }

  /// SIGTERM and reap. True when the server drained and exited 0.
  bool stop() {
    if (Pid < 0)
      return Clean;
    kill(Pid, SIGTERM);
    int St = 0;
    struct rusage Ru {};
    while (wait4(Pid, &St, 0, &Ru) < 0 && errno == EINTR) {
    }
    Pid = -1;
    PeakRssMb = double(Ru.ru_maxrss) / 1024.0;
    Clean = WIFEXITED(St) && WEXITSTATUS(St) == 0;
    std::ifstream In(metricsPath());
    std::string Err;
    if (!In || !loadMetricsJson(In, Final, &Err))
      Clean = false;
    std::error_code Ec;
    fs::remove(metricsPath(), Ec);
    fs::remove_all(cacheDir(), Ec);
    return Clean;
  }

  double peakRssMb() const { return PeakRssMb; }
  /// The server's dra-metrics-v1 export at shutdown; sums every label set
  /// of \p Name.
  double finalMetric(const std::string &Name) const {
    double Sum = 0;
    for (const auto *Map : {&Final.Counters, &Final.Gauges})
      for (const auto &[Key, V] : *Map)
        if (Key.compare(0, Name.size(), Name) == 0 &&
            (Key.size() == Name.size() || Key[Name.size()] == '{'))
          Sum += V;
    return Sum;
  }

  /// Per-tier request counts from a live `dra-ctl-v1 stats`.
  std::map<std::string, double> tierCounts() const {
    std::map<std::string, double> Out;
    int Fd = connect();
    CtlRequest Q;
    Q.Cmd = "stats";
    CompileResponse Resp;
    JsonValue V;
    std::string Err;
    bool Ok = Fd >= 0 && transactCtl(Fd, Q, Resp, &Err) &&
              parseJson(Resp.Body, V, &Err);
    if (Fd >= 0)
      ::close(Fd);
    if (!Ok)
      throw std::runtime_error("dra-ctl-v1 stats failed: " + Err);
    if (const JsonValue *Tiers = V.field("tiers"))
      for (const JsonValue &T : Tiers->Arr)
        if (T.field("tier") && T.field("count"))
          Out[T.field("tier")->Str] = T.field("count")->Num;
    return Out;
  }

private:
  const Options &Opts;
  std::vector<std::string> Extra;
  std::string Base;
  pid_t Pid = -1;
  bool Clean = false;
  double PeakRssMb = 0;
  MetricsFileData Final;
};

//===----------------------------------------------------------------------===//
// Requests and phases
//===----------------------------------------------------------------------===//

struct Request {
  size_t Func = 0;
  Scheme S = Scheme::Coalesce;
  bool Auto = false;
};

struct Served {
  std::vector<Function> Funcs;
  std::vector<std::string> Texts;
};

Served makeServed(std::vector<Function> Fs) {
  Served S;
  for (const Function &F : Fs)
    S.Texts.push_back(printFunction(F));
  S.Funcs = std::move(Fs);
  return S;
}

CompileRequest toWire(const Served &Srv, const Request &Q, uint64_t TraceId) {
  CompileRequest Req;
  Req.S = Q.S;
  Req.Auto = Q.Auto;
  Req.TraceId = TraceId;
  Req.Body = Srv.Texts[Q.Func];
  return Req;
}

struct PhaseResult {
  std::vector<Outcome> Out;
  std::vector<CompileResponse> Resp;
  std::vector<bool> Decoded;
};

/// Sends \p Reqs at \p Rate per second (0 = all due at once) over nproc
/// connections; traced phases carry a traceid on every request.
PhaseResult runPhase(const Options &O, const ServerProcess &Srv,
                     const Served &Corpus, const std::vector<Request> &Reqs,
                     double Rate, bool Traced, uint64_t TraceSalt) {
  std::vector<int> Fds;
  for (unsigned C = 0; C != O.Nproc; ++C) {
    int Fd = Srv.connect();
    if (Fd < 0)
      break;
    Fds.push_back(Fd);
  }
  std::vector<std::string> Payloads;
  std::vector<uint64_t> Due;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    uint64_t Id = Traced ? deriveTraceId(TraceSalt, I) : 0;
    Payloads.push_back(encodeRequest(toWire(Corpus, Reqs[I], Id)));
    Due.push_back(Rate > 0 ? static_cast<uint64_t>(double(I) * 1e9 / Rate)
                           : 0);
  }
  PhaseResult P;
  P.Out = runOpenLoop(Fds, Payloads, Due, PhaseTimeoutNs);
  for (int Fd : Fds)
    ::close(Fd);
  P.Resp.resize(Reqs.size());
  P.Decoded.resize(Reqs.size());
  for (size_t I = 0; I != Reqs.size(); ++I)
    P.Decoded[I] =
        P.Out[I].Answered && decodeResponse(P.Out[I].Response, P.Resp[I]);
  return P;
}

/// Counts every request of \p P that was not answered `ok` with tier
/// \p WantTier. Returns the indices that passed.
std::vector<size_t> admitted(const PhaseResult &P, const char *WantTier,
                             const char *Phase, Report &R) {
  std::vector<size_t> Ok;
  for (size_t I = 0; I != P.Out.size(); ++I) {
    ++R.Attempted;
    const std::string Where =
        std::string(Phase) + " request " + std::to_string(I) + ": ";
    if (!P.Decoded[I])
      R.fail(Where + (P.Out[I].Answered ? "undecodable response"
                                        : "no response"));
    else if (P.Resp[I].Status != ResponseStatus::Ok)
      R.fail(Where + "status " +
             (P.Resp[I].Status == ResponseStatus::Shed ? "shed"
                                                       : "error: " +
                                                             P.Resp[I].Body));
    else if (P.Resp[I].Tier != WantTier)
      R.fail(Where + "tier " + P.Resp[I].Tier + ", expected " + WantTier);
    else
      Ok.push_back(I);
  }
  return Ok;
}

std::vector<double> latenciesUs(const PhaseResult &P) {
  std::vector<double> V;
  for (const Outcome &O : P.Out)
    if (O.Answered)
      V.push_back(O.latencyUs());
  return V;
}

/// First due time to last response: how long the server took to clear
/// the timed schedule (grows past the schedule when a backlog builds).
double makespanSec(const PhaseResult &P) {
  uint64_t Last = 0;
  for (const Outcome &O : P.Out)
    Last = std::max(Last, O.DoneNs);
  return P.Out.empty() || Last < P.Out.front().DueNs
             ? 0
             : double(Last - P.Out.front().DueNs) / 1e9;
}

struct Quality {
  uint64_t Spill = 0, Slr = 0, Bytes = 0, Cycles = 0;
  void add(const CheckedResult &C) {
    Spill += C.SpillInsts;
    Slr += C.SetLastRegs;
    Bytes += C.CodeBytes;
    Cycles += C.Cycles;
  }
};

void addEndToEnd(Report &R, double SetupS, const PhaseResult &P,
                 double PeakRss, const Quality &Q) {
  std::vector<double> Lat = latenciesUs(P);
  std::fprintf(stderr, "perfbench: %zu timed requests, rpc p90 %.1f us\n",
               Lat.size(), quantile(Lat, 0.9));
  R.add("setup_s", SetupS, "s");
  R.add("wall_s", makespanSec(P), "s");
  R.add("rpc_p50_us", quantile(Lat, 0.5), "us");
  R.add("rpc_p75_us", quantile(Lat, 0.75), "us");
  R.add("peak_rss_mb", PeakRss, "MiB");
  R.add("spill_insts", double(Q.Spill), "count");
  R.add("set_last_regs", double(Q.Slr), "count");
  R.add("code_bytes", double(Q.Bytes), "bytes");
  R.add("cycles", double(Q.Cycles), "count");
}

//===----------------------------------------------------------------------===//
// Per-layer accounting of a traced phase
//===----------------------------------------------------------------------===//

const char *const StageNames[] = {"alloc", "ospill", "coalesce",
                                  "recolor", "remap", "encode"};

/// Splits every traced response into its server spans, client transport
/// and generator lag (all µs); request = its depth-1 children +
/// unattributed, and rpc = lag + transport + request.
void accountLayers(const PhaseResult &P, const std::vector<Request> &Reqs,
                   const std::vector<size_t> &Ok, SpanLog &Log,
                   LayerFigures &L) {
  const uint64_t Self = osProcessId();
  for (size_t I : Ok) {
    const Outcome &O = P.Out[I];
    const CompileResponse &Resp = P.Resp[I];
    double RequestUs = 0, ChildUs = 0, CompileUs = 0;
    for (const WireSpan &S : Resp.Spans) {
      double Us = double(S.DurNs) / 1000.0;
      if (S.Depth == 0 && S.Name == "request")
        RequestUs = Us;
      if (S.Depth == 1)
        ChildUs += Us;
      if (S.Name == "parse")
        L.Parse.push_back(Us);
      else if (S.Name == "queue_wait")
        L.QueueWait.push_back(Us);
      else if (S.Name == "compile")
        CompileUs = Us;
      else if (S.Name == "cache.hit_mem")
        L.Lookup.push_back(Us);
      else if (S.Depth == 2)
        for (const char *Stage : StageNames)
          if (S.Name == Stage)
            L.StageS[Stage] += Us / 1e6;
      Log.add(S.Name, Resp.ServerPid, S.Tid, S.BeginNs, S.BeginNs + S.DurNs,
              "server");
    }
    for (const auto &[Tid, Name] : Resp.ThreadNames)
      Log.ThreadNames[{Resp.ServerPid, Tid}] = Name;
    L.Request.push_back(RequestUs);
    L.Compile.push_back(CompileUs);
    if (Reqs[I].Auto)
      L.Portfolio.push_back(CompileUs);
    L.Unattributed.push_back(RequestUs - ChildUs);
    L.Transport.push_back(double(O.DoneNs - O.SendNs) / 1000.0 - RequestUs);
    L.Lag.push_back(O.lagUs());
    L.Rpc.push_back(O.latencyUs());
    Log.add("rpc " + traceIdToHex(Resp.TraceId), Self, 1000 + O.Conn, O.DueNs,
            O.DoneNs, "client");
    Log.ThreadNames[{Self, 1000 + O.Conn}] =
        "loadgen-conn-" + std::to_string(O.Conn);
  }
  std::fprintf(stderr,
               "perfbench: mean rpc %.1f us = lag %.1f + transport %.1f + "
               "request %.1f (parse %.1f + queue_wait %.1f + compile %.1f + "
               "unattributed %.1f)\n",
               mean(L.Rpc), mean(L.Lag), mean(L.Transport), mean(L.Request),
               mean(L.Parse), mean(L.QueueWait), mean(L.Compile),
               mean(L.Unattributed));
}

double hitRatio(const std::map<std::string, double> &Before,
                const std::map<std::string, double> &After) {
  double Hits = 0, All = 0;
  for (const auto &[Tier, N] : After) {
    auto It = Before.find(Tier);
    double D = N - (It == Before.end() ? 0 : It->second);
    All += D;
    if (Tier == "hit_mem" || Tier == "hit_disk")
      Hits += D;
  }
  return All > 0 ? Hits / All : 0;
}

double elapsedUs(double T0) { return (nowSec() - T0) * 1e6; }

/// Traced over untraced median latency, in percent above 1.
double overheadPct(const PhaseResult &Untraced, const PhaseResult &Traced) {
  double Base = quantile(latenciesUs(Untraced), 0.5);
  return Base > 0 ? 100.0 * (quantile(latenciesUs(Traced), 0.5) / Base - 1)
                  : 0;
}

std::vector<uint64_t> referenceFps(const Served &S) {
  std::vector<uint64_t> Fps;
  for (const Function &F : S.Funcs)
    Fps.push_back(referenceFingerprint(F));
  return Fps;
}

size_t requestCount(double Rate, double Seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(Rate * Seconds)));
}

} // namespace

//===----------------------------------------------------------------------===//
// serve_hot
//===----------------------------------------------------------------------===//

void runServeHot(const Options &O, Report &R) {
  const size_t NS = std::size(ServedSchemes);
  auto KeyOf = [&](const Request &Q) {
    return Q.Func * NS + size_t(std::find(std::begin(ServedSchemes),
                                          std::end(ServedSchemes), Q.S) -
                                std::begin(ServedSchemes));
  };

  // Set-up: corpus, a fresh server, and one compile per (function,
  // scheme) key. Keys are distinct, so the nproc connections never race
  // two misses on one key and the cache ends up holding every key once.
  std::unique_ptr<ServerProcess> Srv;
  Served Corpus;
  std::vector<std::string> RefBody;
  std::vector<double> SetupS;
  const int SetupRounds = O.Trace ? 1 : 3;
  for (int Round = 0; Round != SetupRounds; ++Round) {
    Srv.reset();
    const double T0 = nowSec();
    Corpus = makeServed(smallCorpus(O.Seed, 1, HotFuncs, HotMinInsts,
                                    HotMaxInsts));
    Srv = std::make_unique<ServerProcess>(O, std::vector<std::string>{},
                                          /*DiskTier=*/false);
    Srv->start();
    std::vector<Request> Warm;
    for (size_t F = 0; F != HotFuncs; ++F)
      for (Scheme S : ServedSchemes)
        Warm.push_back({F, S, false});
    PhaseResult P = runPhase(O, *Srv, Corpus, Warm, 0, false, 0);
    SetupS.push_back(nowSec() - T0);
    // Only the kept server's warm-up counts toward the result.
    Report Discarded;
    std::vector<size_t> Ok = admitted(
        P, "miss", "warm-up", Round + 1 == SetupRounds ? R : Discarded);
    RefBody.assign(HotFuncs * NS, "");
    for (size_t I : Ok)
      RefBody[KeyOf(Warm[I])] = P.Resp[I].Body;
  }
  std::fprintf(stderr, "perfbench: serve_hot corpus hash %016llx\n",
               static_cast<unsigned long long>(corpusHash(Corpus.Funcs)));

  // The timed request mix: zipf over the corpus ranks, schemes uniform.
  Rng Mix(Rng::taskSeed(O.Seed, 2));
  std::vector<double> Cdf(HotFuncs);
  double Sum = 0;
  for (size_t I = 0; I != HotFuncs; ++I)
    Cdf[I] = Sum += std::pow(double(I + 1), -HotZipf);
  auto Draw = [&](size_t N) {
    std::vector<Request> Reqs;
    for (size_t I = 0; I != N; ++I) {
      double U = Mix.nextDouble() * Sum;
      size_t F = std::min<size_t>(
          std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin(),
          HotFuncs - 1);
      Reqs.push_back({F, ServedSchemes[Mix.nextBelow(NS)], false});
    }
    return Reqs;
  };

  // Every timed response must be a memory hit whose body repeats the
  // warm-up body of its key byte for byte.
  auto Validate = [&](const PhaseResult &P, const std::vector<Request> &Reqs,
                      const char *Phase) {
    std::vector<size_t> Ok = admitted(P, "hit_mem", Phase, R);
    std::vector<size_t> Same;
    for (size_t I : Ok) {
      if (P.Resp[I].Body != RefBody[KeyOf(Reqs[I])])
        R.fail(std::string(Phase) + " request " + std::to_string(I) +
               ": body differs from the first response for its key");
      else
        Same.push_back(I);
    }
    return Same;
  };

  const double PhaseSec = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::vector<Request> Reqs = Draw(requestCount(HotRate, PhaseSec));
  PhaseResult Timed = runPhase(O, *Srv, Corpus, Reqs, HotRate, false, 0);
  Validate(Timed, Reqs, "timed");

  LayerFigures In;
  if (O.Trace) {
    std::vector<Request> TReqs = Draw(requestCount(HotRate, PhaseSec));
    auto Before = Srv->tierCounts();
    PhaseResult Traced =
        runPhase(O, *Srv, Corpus, TReqs, HotRate, true, O.Seed);
    In.HitRatio = hitRatio(Before, Srv->tierCounts());
    std::vector<size_t> Ok = Validate(Traced, TReqs, "traced");
    SpanLog Log;
    accountLayers(Traced, TReqs, Ok, Log, In);
    // The cache layer's public calls on the served mix, timed here.
    std::vector<Function> Parsed;
    for (const std::string &T : Corpus.Texts)
      Parsed.push_back(*parseFunction(T));
    for (size_t I : Ok) {
      const Request &Q = TReqs[I];
      PipelineConfig C = toWire(Corpus, Q, 0).toConfig();
      double T0 = nowSec();
      uint64_t Key = ResultCache::cacheKey(Parsed[Q.Func], C);
      In.KeyUs.push_back(elapsedUs(T0));
      PipelineResult PR;
      T0 = nowSec();
      bool Decoded = ResultCache::deserializeResult(Traced.Resp[I].Body, PR);
      In.DeserializeUs.push_back(elapsedUs(T0));
      T0 = nowSec();
      std::string Again = ResultCache::serializeResult(PR);
      In.SerializeUs.push_back(elapsedUs(T0));
      if (!Decoded || Again != Traced.Resp[I].Body || Key == 0)
        R.fail("cache round trip of a served body is not exact");
    }
    In.Sent = double(TReqs.size());
    In.Completed = double(Ok.size());
    In.OverheadPct = overheadPct(Timed, Traced);
    In.RpcP90Us = quantile(latenciesUs(Timed), 0.9);
    writeTrace(O, Log, R);
  }
  if (!Srv->stop())
    R.fail("dra-server did not shut down cleanly");
  In.CacheBytes = Srv->finalMetric("cache.bytes");

  // Output check, after the timed phase: every warm-up body (the bytes
  // every timed response repeated) against the reference interpreter.
  std::vector<uint64_t> RefFp = referenceFps(Corpus);
  if (O.CorruptOne)
    RefBody[0] = corruptBody(RefBody[0]);
  Quality Q;
  for (size_t K = 0; K != RefBody.size(); ++K) {
    if (RefBody[K].empty())
      continue; // its warm-up request already failed
    CheckedResult C = checkBody(RefBody[K], RefFp[K / NS]);
    if (!C.Ok)
      R.fail("function " + Corpus.Funcs[K / NS].Name + " scheme " +
             wireSchemeName(ServedSchemes[K % NS]) + ": " + C.Why);
    Q.add(C);
  }

  if (O.Trace)
    addLayerMetrics(R, In);
  else
    addEndToEnd(R, median(SetupS), Timed, Srv->peakRssMb(), Q);
}

//===----------------------------------------------------------------------===//
// serve_miss
//===----------------------------------------------------------------------===//

void runServeMiss(const Options &O, Report &R) {
  const double PhaseSec = O.Trace ? O.Seconds / 2 : O.Seconds;
  const size_t PerPhase = requestCount(MissRate, PhaseSec);
  const size_t Total = O.Trace ? 2 * PerPhase : PerPhase;

  // Set-up: the never-repeated corpus and a fresh server with an empty
  // memory tier, an empty disk tier and portfolio racing.
  std::unique_ptr<ServerProcess> Srv;
  Served Corpus;
  std::vector<double> SetupS;
  for (int Round = 0; Round != (O.Trace ? 1 : 3); ++Round) {
    Srv.reset();
    const double T0 = nowSec();
    Corpus = makeServed(smallCorpus(O.Seed, 3, Total, MissMinInsts,
                                    MissMaxInsts));
    Srv = std::make_unique<ServerProcess>(
        O, std::vector<std::string>{"--portfolio=race"}, /*DiskTier=*/true);
    Srv->start();
    SetupS.push_back(nowSec() - T0);
  }
  std::fprintf(stderr, "perfbench: serve_miss corpus hash %016llx\n",
               static_cast<unsigned long long>(corpusHash(Corpus.Funcs)));

  // A fixed rotation remap, select, coalesce, auto: the request mix is
  // the same at every seed, only the functions differ.
  std::vector<Request> All;
  for (size_t I = 0; I != Total; ++I)
    All.push_back({I, ServedSchemes[I % 4 % 3], I % 4 == 3});
  std::vector<Request> Reqs(All.begin(), All.begin() + PerPhase);

  std::vector<std::pair<size_t, std::string>> Bodies; // (function, body)
  auto Validate = [&](const PhaseResult &P, const std::vector<Request> &Rs,
                      const char *Phase) {
    std::vector<size_t> Ok = admitted(P, "miss", Phase, R);
    for (size_t I : Ok)
      Bodies.push_back({Rs[I].Func, P.Resp[I].Body});
    return Ok;
  };
  PhaseResult Timed = runPhase(O, *Srv, Corpus, Reqs, MissRate, false, 0);
  Validate(Timed, Reqs, "timed");

  LayerFigures In;
  if (O.Trace) {
    std::vector<Request> TReqs(All.begin() + PerPhase, All.end());
    auto Before = Srv->tierCounts();
    PhaseResult Traced =
        runPhase(O, *Srv, Corpus, TReqs, MissRate, true, O.Seed);
    In.HitRatio = hitRatio(Before, Srv->tierCounts());
    std::vector<size_t> Ok = Validate(Traced, TReqs, "traced");
    SpanLog Log;
    accountLayers(Traced, TReqs, Ok, Log, In);
    // Store each compiled result into a fresh two-tier cache, timed here.
    ResultCacheOptions CO;
    CO.DiskDir = O.OutDir + "/store-" + std::to_string(getpid());
    {
      ResultCache Store(CO);
      for (size_t I : Ok) {
        const Request &Q = TReqs[I];
        PipelineResult PR;
        if (!ResultCache::deserializeResult(Traced.Resp[I].Body, PR)) {
          R.fail("traced miss body does not deserialize");
          continue;
        }
        In.addCounters(PR);
        PipelineConfig C = toWire(Corpus, Q, 0).toConfig();
        if (Q.Auto)
          C.Portfolio.Mode = PortfolioMode::Race;
        double T0 = nowSec();
        Store.store(Corpus.Funcs[Q.Func], C, PR);
        In.StoreUs.push_back(elapsedUs(T0));
      }
    }
    std::error_code Ec;
    fs::remove_all(CO.DiskDir, Ec);
    In.Sent = double(TReqs.size());
    In.Completed = double(Ok.size());
    In.OverheadPct = overheadPct(Timed, Traced);
    In.RpcP90Us = quantile(latenciesUs(Timed), 0.9);
    writeTrace(O, Log, R);
  }
  if (!Srv->stop())
    R.fail("dra-server did not shut down cleanly");
  const double Run = Srv->finalMetric("portfolio.arms_run");
  const double Cancelled = Srv->finalMetric("portfolio.arms_cancelled");
  std::fprintf(stderr, "perfbench: portfolio ran %.0f arm(s), cancelled %.0f\n",
               Run, Cancelled);
  In.CancelRatio = Run > 0 ? Cancelled / Run : 0;
  In.CacheBytes = Srv->finalMetric("cache.bytes");

  // Output check: every compiled body against the reference interpreter.
  if (O.CorruptOne && !Bodies.empty())
    Bodies.front().second = corruptBody(Bodies.front().second);
  Quality Q;
  for (const auto &[F, Body] : Bodies) {
    CheckedResult C = checkBody(Body, referenceFingerprint(Corpus.Funcs[F]));
    if (!C.Ok)
      R.fail("function " + Corpus.Funcs[F].Name + ": " + C.Why);
    Q.add(C);
  }

  if (O.Trace)
    addLayerMetrics(R, In);
  else
    addEndToEnd(R, median(SetupS), Timed, Srv->peakRssMb(), Q);
}

} // namespace perfbench
