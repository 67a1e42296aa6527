//===- core/DiffSelectHook.cpp - Differential select (approach 2) ---------===//

#include "core/DiffSelectHook.h"

#include <cassert>

using namespace dra;

unsigned dra::cheapestColor(const std::vector<unsigned> &Colors,
                           const std::vector<double> &Costs) {
  assert(!Colors.empty() && Colors.back() < Costs.size() &&
         "candidate colors out of range");
  unsigned Best = Colors.front();
  for (size_t I = 1; I < Colors.size() && Costs[Best] > 0; ++I)
    if (Costs[Colors[I]] < Costs[Best])
      Best = Colors[I];
  return Best;
}

void DiffSelectHook::beginFunction(const Function &F) {
  Adjacency = AdjacencyGraph::build(F, Config, WeightMode::Frequency);
}

unsigned DiffSelectHook::choose(const SelectContext &Ctx) {
  const std::vector<unsigned> &OkColors = *Ctx.OkColors;
  assert(!OkColors.empty() && "choose() with no legal colors");
  selectCosts(Adjacency, Config, *Ctx.Members,
              [&](RegId V) { return Ctx.colorOf(V); }, Costs);
  return cheapestColor(OkColors, Costs);
}
