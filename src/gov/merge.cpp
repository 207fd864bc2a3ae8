#include "gov/merge.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/serial.hpp"
#include "common/stats.hpp"
#include "gov/governor.hpp"

namespace prime::gov {
namespace {

/// The generic merger: exact weighted accumulation of table cells plus an
/// order-invariant champion carry for everything else (see merge.hpp).
class WeightedStateMerger final : public StateMerger {
 public:
  explicit WeightedStateMerger(std::unique_ptr<MergeTraits> traits)
      : traits_(std::move(traits)) {}

  void add_state(const std::string& payload) override {
    ParsedState p = traits_->parse(payload);
    fold_data(p);
    consider_champion(p.has_data, p.weight, payload);
    sources_ += 1;
    weight_ += p.weight;
  }

  void add_accumulator(const std::string& bytes) override {
    try {
      fold_accumulator(bytes);
    } catch (const common::SerialError& e) {
      throw StateMergeError(std::string("state merge accumulator: ") +
                            e.what());
    }
  }

  [[nodiscard]] std::string accumulator() const override {
    std::ostringstream out(std::ios::binary);
    common::StateWriter w(out);
    w.str(traits_->name());
    w.u64(sources_);
    w.u64(weight_);
    w.boolean(has_data_);
    if (has_data_) {
      w.vec_u64(dims_);
      w.size(wq_.size());
      for (const common::ExactSum& sum : wq_) sum.save_state(w);
      w.vec_u64(wsum_);
      w.vec_u64(counters_);
    }
    w.boolean(has_champion_);
    if (has_champion_) {
      w.boolean(champion_has_data_);
      w.u64(champion_weight_);
      w.blob(champion_);
    }
    return out.str();
  }

  [[nodiscard]] std::string extract_state() const override {
    if (sources_ == 0 || !has_champion_) {
      throw StateMergeError("state merge: nothing to extract (no states "
                            "folded in)");
    }
    // With no trained table anywhere — or zero total weight — a weighted
    // average is undefined; the champion payload verbatim is the merge.
    if (!has_data_ || !champion_has_data_ || weight_ == 0) return champion_;

    std::vector<double> merged(wq_.size(), 0.0);
    for (std::size_t i = 0; i < wq_.size(); ++i) {
      merged[i] = wsum_[i] == 0
                      ? 0.0
                      : wq_[i].value() / static_cast<double>(wsum_[i]);
    }
    const ParsedState champ = traits_->parse(champion_);
    // Sources and accumulators were checked against dims_ as they were
    // folded; a champion of another geometry means a forged accumulator.
    if (champ.dims != dims_ || champ.values.size() != wq_.size()) {
      throw StateMergeError("state merge: champion geometry " +
                            describe_dims(champ.dims) +
                            " does not match the merged table " +
                            describe_dims(dims_));
    }
    const std::vector<std::string> repl =
        traits_->replacements(champ, merged, wsum_, counters_);
    if (repl.size() != champ.spans.size()) {
      throw StateMergeError("state merge: traits produced " +
                            std::to_string(repl.size()) + " replacements for " +
                            std::to_string(champ.spans.size()) + " spans");
    }
    std::string out;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < champ.spans.size(); ++i) {
      const auto [begin, end] = champ.spans[i];
      if (begin < cursor || end < begin || end > champion_.size()) {
        throw StateMergeError("state merge: champion spans are not ascending "
                              "within the payload");
      }
      out.append(champion_, cursor, begin - cursor);
      out.append(repl[i]);
      cursor = end;
    }
    out.append(champion_, cursor, champion_.size() - cursor);
    return out;
  }

  [[nodiscard]] std::uint64_t weight() const noexcept override {
    return weight_;
  }
  [[nodiscard]] std::uint64_t sources() const noexcept override {
    return sources_;
  }

 private:
  void check_dims(const std::vector<std::uint64_t>& dims) const {
    if (has_data_ && dims != dims_) {
      throw StateMergeError("state merge: state-space mismatch: " +
                            describe_dims(dims) + " vs " +
                            describe_dims(dims_));
    }
  }

  void adopt_or_check(const std::vector<std::uint64_t>& dims) {
    check_dims(dims);
    if (!has_data_) {
      has_data_ = true;
      dims_ = dims;
    }
  }

  /// Parse the whole accumulator first and fold it only once it is known
  /// to be well-formed, so a rejected one leaves this merger unchanged.
  void fold_accumulator(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    common::StateReader r(in);
    const std::string tag = r.str();
    if (tag != traits_->name()) {
      throw StateMergeError("state merge: accumulator for '" + tag +
                            "' folded into a '" + traits_->name() +
                            "' merger");
    }
    const std::uint64_t sources = r.u64();
    const std::uint64_t weight = r.u64();
    const bool has_data = r.boolean();
    std::vector<std::uint64_t> dims;
    std::vector<common::ExactSum> wq;
    std::vector<std::uint64_t> wsum;
    std::vector<std::uint64_t> counters;
    if (has_data) {
      dims = r.vec_u64();
      check_dims(dims);
      const std::uint64_t cells = r.u64();
      if (has_data_ && cells != wq_.size()) {
        throw StateMergeError("state merge: accumulator cell count " +
                              std::to_string(cells) + " does not match " +
                              std::to_string(wq_.size()));
      }
      // The sums grow as they are read, so a corrupt cell count fails on the
      // short read instead of allocating what it claims.
      wq.reserve(std::min<std::uint64_t>(cells,
                                         common::StateReader::kVecChunk));
      while (wq.size() < cells) wq.emplace_back().load_state(r);
      wsum = r.vec_u64();
      counters = r.vec_u64();
      if (wsum.size() != cells ||
          (has_data_ && counters.size() != counters_.size())) {
        throw StateMergeError("state merge: accumulator weight/counter "
                              "vectors do not match the table geometry");
      }
    }
    const bool has_champion = r.boolean();
    bool champ_has_data = false;
    std::uint64_t champ_weight = 0;
    std::string champ;
    if (has_champion) {
      champ_has_data = r.boolean();
      champ_weight = r.u64();
      // A champion is a whole governor payload, which can exceed the string
      // cap, so it travels as a blob.
      champ = r.blob();
    }
    if (in.peek() != std::istream::traits_type::eof()) {
      throw StateMergeError("state merge: trailing bytes after accumulator");
    }

    if (has_data && !has_data_) {
      has_data_ = true;
      dims_ = std::move(dims);
      wq_ = std::move(wq);
      wsum_ = std::move(wsum);
      counters_ = std::move(counters);
    } else if (has_data) {
      for (std::size_t i = 0; i < wq.size(); ++i) {
        wq_[i] += wq[i];
        wsum_[i] += wsum[i];
      }
      for (std::size_t i = 0; i < counters.size(); ++i) {
        counters_[i] += counters[i];
      }
    }
    if (has_champion) consider_champion(champ_has_data, champ_weight, champ);
    sources_ += sources;
    weight_ += weight;
  }

  void fold_data(const ParsedState& p) {
    if (!p.has_data) return;
    if (p.values.size() != p.cell_weights.size()) {
      throw StateMergeError("state merge: parsed values/weights size skew");
    }
    // Check every weighted value before folding any, so a rejected source
    // leaves this merger unchanged.
    for (std::size_t i = 0; i < p.values.size(); ++i) {
      if (p.cell_weights[i] != 0 &&
          !common::ExactSum::addable(
              static_cast<double>(p.cell_weights[i]) * p.values[i])) {
        throw StateMergeError("state merge: cell " + std::to_string(i) +
                              " value " + std::to_string(p.values[i]) +
                              " at weight " +
                              std::to_string(p.cell_weights[i]) +
                              " cannot be summed exactly");
      }
    }
    const bool first = !has_data_;
    adopt_or_check(p.dims);
    if (first) {
      wq_.assign(p.values.size(), common::ExactSum{});
      wsum_.assign(p.values.size(), 0);
      counters_.assign(p.counters.size(), 0);
    }
    if (p.values.size() != wq_.size() ||
        p.counters.size() != counters_.size()) {
      throw StateMergeError("state merge: source cell/counter count does not "
                            "match the adopted geometry");
    }
    for (std::size_t i = 0; i < p.values.size(); ++i) {
      if (p.cell_weights[i] != 0) {
        wq_[i].add(static_cast<double>(p.cell_weights[i]) * p.values[i]);
        wsum_[i] += p.cell_weights[i];
      }
    }
    for (std::size_t i = 0; i < p.counters.size(); ++i) {
      counters_[i] += p.counters[i];
    }
  }

  /// Champion order: trained beats untrained, then higher weight, then the
  /// lexicographically smaller payload — a total order, so the champion is
  /// the same whatever order sources are folded in.
  void consider_champion(bool has_data, std::uint64_t weight,
                         const std::string& payload) {
    const bool better =
        !has_champion_ ||
        std::make_tuple(has_data, weight) >
            std::make_tuple(champion_has_data_, champion_weight_) ||
        (has_data == champion_has_data_ && weight == champion_weight_ &&
         payload < champion_);
    if (better) {
      has_champion_ = true;
      champion_has_data_ = has_data;
      champion_weight_ = weight;
      champion_ = payload;
    }
  }

  std::unique_ptr<MergeTraits> traits_;
  bool has_data_ = false;
  std::vector<std::uint64_t> dims_;
  std::vector<common::ExactSum> wq_;   ///< Per-cell Σ weight·value (exact).
  std::vector<std::uint64_t> wsum_;    ///< Per-cell Σ weight.
  std::vector<std::uint64_t> counters_;
  std::uint64_t weight_ = 0;
  std::uint64_t sources_ = 0;
  bool has_champion_ = false;
  bool champion_has_data_ = false;
  std::uint64_t champion_weight_ = 0;
  std::string champion_;
};

}  // namespace

std::unique_ptr<StateMerger> make_weighted_merger(
    std::unique_ptr<MergeTraits> traits) {
  return std::make_unique<WeightedStateMerger>(std::move(traits));
}

std::string describe_dims(const std::vector<std::uint64_t>& dims) {
  if (dims.empty()) return "empty";
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i != 0) out += 'x';
    out += std::to_string(dims[i]);
  }
  return out;
}

// Out-of-line so the unique_ptr<StateMerger> destructor instantiates where
// StateMerger is complete (governor.hpp only forward-declares it).
std::unique_ptr<StateMerger> Governor::make_state_merger() const {
  return nullptr;
}

}  // namespace prime::gov
