//===- bench/bench_lowend.cpp - Figures 11-14: the low-end suite ----------===//
//
// Runs the low-end experiment once (ten MiBench-like programs under the
// five pipelines, then pipeline simulation) and prints the paper's four
// low-end figures from it:
//
//  * Figure 11: static spill instructions as % of all code. Paper
//    averages: baseline 10.44, remapping 6.87, select 6.84, O-spill 7.32,
//    coalesce 5.55 (%).
//  * Figure 12: static set_last_reg instructions as % of all code, for the
//    three differential schemes. Paper averages: remapping 10.41, select
//    4.21, coalesce 3.04 (%).
//  * Figure 13: code size normalized to the baseline. Paper: remapping
//    grows code ~7%, select stays within 1%, O-spill shrinks it ~4%,
//    coalesce ~2%.
//  * Figure 14: speedup over the baseline on the interpreter-driven
//    5-stage pipeline model with I/D caches. Paper averages: remapping
//    4.5%, select 9.7%, coalesce 12.1%, O-spill 4.1%. Every run also
//    re-checks that the transformed code computes the same result as the
//    original program; the exit status is 1 if any run does not.
//
// usage: bench_lowend [remap-starts]   (default 200; the paper uses 1000)
//
//===----------------------------------------------------------------------===//

#include "SuiteRunner.h"

#include <cstdio>
#include <cstdlib>

using namespace dra;

namespace {

void printFig11(const std::vector<ProgramMetrics> &Suite) {
  std::printf("Figure 11: static spill instructions (%% of all code)\n");
  std::printf("%-14s", "benchmark");
  for (Scheme S : allSchemes())
    std::printf("%12s", schemeName(S));
  std::printf("\n");

  std::vector<double> Sums(allSchemes().size(), 0);
  for (const ProgramMetrics &PM : Suite) {
    std::printf("%-14s", PM.Name.c_str());
    size_t Idx = 0;
    for (Scheme S : allSchemes()) {
      double V = PM.PerScheme.at(S).SpillPct;
      Sums[Idx++] += V;
      std::printf("%11.2f%%", V);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "average");
  for (double Sum : Sums)
    std::printf("%11.2f%%", Sum / static_cast<double>(Suite.size()));
  std::printf("\n\npaper averages: baseline 10.44, remapping 6.87, "
              "select 6.84, O-spill 7.32, coalesce 5.55 (%%)\n");
}

void printFig12(const std::vector<ProgramMetrics> &Suite) {
  const Scheme DiffSchemes[] = {Scheme::Remap, Scheme::Select,
                                Scheme::Coalesce};

  std::printf("Figure 12: set_last_reg instructions (%% of all code)\n");
  std::printf("%-14s%12s%12s%12s\n", "benchmark", "remapping", "select",
              "coalesce");
  double Sums[3] = {0, 0, 0};
  for (const ProgramMetrics &PM : Suite) {
    std::printf("%-14s", PM.Name.c_str());
    for (int I = 0; I != 3; ++I) {
      const SchemeMetrics &M = PM.PerScheme.at(DiffSchemes[I]);
      Sums[I] += M.SlrPct;
      std::printf("%11.2f%%", M.SlrPct);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "average");
  for (double Sum : Sums)
    std::printf("%11.2f%%", Sum / static_cast<double>(Suite.size()));
  std::printf("\n");

  std::printf("\nbreakdown (join repairs vs out-of-range repairs, static "
              "counts summed over programs):\n");
  for (int I = 0; I != 3; ++I) {
    size_t Join = 0, Range = 0;
    for (const ProgramMetrics &PM : Suite) {
      Join += PM.PerScheme.at(DiffSchemes[I]).SlrJoin;
      Range += PM.PerScheme.at(DiffSchemes[I]).SlrRange;
    }
    std::printf("  %-10s join %6zu   range %6zu\n",
                schemeName(DiffSchemes[I]), Join, Range);
  }
  std::printf("\npaper averages: remapping 10.41, select 4.21, coalesce "
              "3.04 (%%)\n");
}

void printFig13(const std::vector<ProgramMetrics> &Suite) {
  std::printf("Figure 13: code size (normalized to baseline)\n");
  std::printf("%-14s", "benchmark");
  for (Scheme S : allSchemes())
    std::printf("%12s", schemeName(S));
  std::printf("\n");

  std::vector<double> Sums(allSchemes().size(), 0);
  for (const ProgramMetrics &PM : Suite) {
    std::printf("%-14s", PM.Name.c_str());
    size_t Idx = 0;
    for (Scheme S : allSchemes()) {
      double Ratio = PM.codeRatio(S);
      Sums[Idx++] += Ratio;
      std::printf("%12.3f", Ratio);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "average");
  for (double Sum : Sums)
    std::printf("%12.3f", Sum / static_cast<double>(Suite.size()));
  std::printf("\n\npaper averages: remapping ~1.07, select ~1.01, O-spill "
              "~0.96, coalesce ~0.98 (normalized)\n");
}

/// Returns whether every transformed program kept its semantics.
bool printFig14(const std::vector<ProgramMetrics> &Suite) {
  const Scheme Shown[] = {Scheme::Remap, Scheme::Select, Scheme::OSpill,
                          Scheme::Coalesce};

  std::printf("Figure 14: speedup over baseline (pipeline simulation)\n");
  std::printf("%-14s%12s%12s%12s%12s\n", "benchmark", "remapping", "select",
              "O-spill", "coalesce");
  double Sums[4] = {0, 0, 0, 0};
  bool AllOk = true;
  for (const ProgramMetrics &PM : Suite) {
    std::printf("%-14s", PM.Name.c_str());
    for (int I = 0; I != 4; ++I) {
      double V = PM.speedupPct(Shown[I]);
      Sums[I] += V;
      std::printf("%+11.2f%%", V);
      AllOk &= PM.PerScheme.at(Shown[I]).SemanticsOk;
    }
    std::printf("\n");
  }
  std::printf("%-14s", "average");
  for (double Sum : Sums)
    std::printf("%+11.2f%%", Sum / static_cast<double>(Suite.size()));
  std::printf("\n\nsemantics preserved on every run: %s\n",
              AllOk ? "yes" : "NO - INVESTIGATE");
  std::printf("paper averages: remapping 4.5, select 9.7, O-spill 4.1, "
              "coalesce 12.1 (%%)\n");
  return AllOk;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Starts = Argc > 1 ? std::atoi(Argv[1]) : 200;
  std::vector<ProgramMetrics> Suite = runLowEndSuite(Starts);

  printFig11(Suite);
  std::printf("\n");
  printFig12(Suite);
  std::printf("\n");
  printFig13(Suite);
  std::printf("\n");
  return printFig14(Suite) ? 0 : 1;
}
