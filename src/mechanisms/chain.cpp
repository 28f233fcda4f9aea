#include "mechanisms/chain.h"

#include <stdexcept>
#include <utility>

#include "mechanisms/registry.h"
#include "util/spec.h"

namespace mobipriv::mech {

ChainMechanism::ChainMechanism(std::vector<std::unique_ptr<Mechanism>> stages)
    : stages_(std::move(stages)) {
  if (stages_.empty()) {
    throw std::invalid_argument("ChainMechanism requires >= 1 stage");
  }
  for (const auto& stage : stages_) {
    if (stage == nullptr) {
      throw std::invalid_argument("ChainMechanism stage is null");
    }
  }
}

std::string ChainMechanism::Name() const {
  std::string name;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) name += "|";
    name += stages_[i]->Name();
  }
  return name;
}

model::EventStore ChainMechanism::ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const {
  model::EventStore current = stages_.front()->ApplyToStore(input, rng);
  for (std::size_t i = 1; i < stages_.size(); ++i) {
    current = stages_[i]->ApplyToStore(current.View(), rng);
  }
  return current;
}

std::unique_ptr<Mechanism> CreateChain(std::string_view text) {
  const util::SpecChain chain = util::SpecChain::Parse(text);
  if (chain.size() == 1) return CreateMechanism(text);
  std::vector<std::unique_ptr<Mechanism>> stages;
  stages.reserve(chain.size());
  for (const util::Spec& stage : chain.stages()) {
    // Stage instances are built from the stage's ORIGINAL spec text (the
    // parsed entries verbatim), matching the single-mechanism contract.
    stages.push_back(CreateMechanism(stage.ToString()));
  }
  return std::make_unique<ChainMechanism>(std::move(stages));
}

}  // namespace mobipriv::mech
