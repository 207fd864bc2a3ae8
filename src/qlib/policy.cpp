#include "qlib/policy.hpp"

#include <cmath>
#include <sstream>

#include "common/hash.hpp"
#include "common/sealed.hpp"
#include "common/serial.hpp"
#include "common/spec.hpp"
#include "common/strings.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"
#include "hw/platform.hpp"

namespace prime::qlib {

namespace {

constexpr common::SealedFormat kFormat{kQpolMagic, kQpolVersion, "policy",
                                       "policy entry",
                                       &common::throw_as<QlibError>};

using common::hex16;

}  // namespace

// --- PolicyShape -------------------------------------------------------------

PolicyShape PolicyShape::of(const hw::Platform& platform,
                            const gov::Governor& governor) {
  return {governor.name(), platform.opp_table().size(), platform.total_cores(),
          platform.shape_fingerprint()};
}

std::string PolicyShape::mismatch(const PolicyShape& other) const {
  if (governor_name != other.governor_name) {
    return "governor mismatch ('" + governor_name + "' vs '" +
           other.governor_name + "')";
  }
  if (opp_count != other.opp_count) {
    return "OPP count mismatch (" + std::to_string(opp_count) + " vs " +
           std::to_string(other.opp_count) +
           ") — trained on a different action space";
  }
  if (core_count != other.core_count) {
    return "core count mismatch (" + std::to_string(core_count) + " vs " +
           std::to_string(other.core_count) + ")";
  }
  if (platform_fingerprint != other.platform_fingerprint) {
    return "platform shape fingerprint mismatch (" +
           hex16(platform_fingerprint) + " vs " +
           hex16(other.platform_fingerprint) +
           ") — same OPP/core counts but different operating points";
  }
  return "";
}

// --- PolicyKey ---------------------------------------------------------------

std::string PolicyKey::workload_class_of(const std::string& name) {
  const std::size_t paren = name.find('(');
  std::string root =
      paren == std::string::npos ? name : name.substr(0, paren);
  while (!root.empty() && root.back() == ' ') root.pop_back();
  std::size_t begin = 0;
  while (begin < root.size() && root[begin] == ' ') ++begin;
  return root.substr(begin);
}

std::uint64_t PolicyKey::fps_band_of(double fps) {
  if (!(fps > 0.0)) return 5;
  const double band = std::llround(fps / 5.0) * 5.0;
  return band < 5.0 ? 5 : static_cast<std::uint64_t>(band);
}

std::string PolicyKey::canonical_governor_spec(const std::string& spec) {
  // Canonicalise through Spec so argument order and whitespace do not fork
  // the key space. Display names with decorator suffixes ("rtm+thermal-cap")
  // are not parseable specs; they key verbatim.
  try {
    return common::Spec::parse(spec).to_string();
  } catch (const std::invalid_argument&) {
    return spec;
  }
}

PolicyKey PolicyKey::make(const hw::Platform& platform,
                          const std::string& workload, double fps,
                          const std::string& governor_spec) {
  PolicyKey key;
  key.platform_fingerprint = platform.shape_fingerprint();
  key.workload_class = workload_class_of(workload);
  key.fps_band = fps_band_of(fps);
  key.governor_spec = canonical_governor_spec(governor_spec);
  return key;
}

std::string PolicyKey::canonical() const {
  return "platform=" + hex16(platform_fingerprint) +
         " workload=" + workload_class + " fps=" + std::to_string(fps_band) +
         " governor=" + governor_spec;
}

std::uint64_t PolicyKey::fingerprint() const {
  common::Fnv1a64 h;
  h.u64(platform_fingerprint);
  h.token(workload_class);
  h.u64(fps_band);
  h.token(governor_spec);
  return h.value();
}

std::string PolicyKey::filename() const {
  // Human-readable prefix for `ls`; the fingerprint suffix is the actual
  // discriminator (sanitisation may collide, the fingerprint cannot).
  auto sanitize = [](const std::string& text) {
    std::string out;
    for (char c : text) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
      out.push_back(keep ? c : '-');
    }
    return out;
  };
  return sanitize(governor_spec) + "-" + sanitize(workload_class) + "-fps" +
         std::to_string(fps_band) + "-" + hex16(fingerprint()) + ".qpol";
}

// --- PolicyEntry -------------------------------------------------------------

void PolicyEntry::write(std::ostream& out) const {
  const auto payload = [&](common::StateWriter& w) {
    w.u64(key.platform_fingerprint);
    w.str(key.workload_class);
    w.u64(key.fps_band);
    w.str(key.governor_spec);
    w.str(governor_name);
    w.u64(opp_count);
    w.u64(core_count);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(provenance.visit_weight);
    w.u64(provenance.epochs_trained);
    w.u64(provenance.sources);
    w.u64(provenance.source_fingerprint);
    w.blob(blob);
  };
  common::write_sealed(out, kFormat, {key.fingerprint()}, payload);
}

PolicyEntry PolicyEntry::read(std::istream& in, const std::string& label) {
  PolicyEntry entry;
  const auto payload = [&](common::StateReader& r) {
    entry.key.platform_fingerprint = r.u64();
    entry.key.workload_class = r.str();
    entry.key.fps_band = r.u64();
    entry.key.governor_spec = r.str();
    entry.governor_name = r.str();
    entry.opp_count = r.u64();
    entry.core_count = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(PolicyBlobKind::kMerged)) {
      throw common::SerialError("unknown blob kind " + std::to_string(kind));
    }
    entry.kind = static_cast<PolicyBlobKind>(kind);
    entry.provenance.visit_weight = r.u64();
    entry.provenance.epochs_trained = r.u64();
    entry.provenance.sources = r.u64();
    entry.provenance.source_fingerprint = r.u64();
    entry.blob = r.blob();
  };
  const std::uint64_t header_fp =
      common::read_sealed(in, kFormat, label, payload)[0];
  if (header_fp != entry.key.fingerprint()) {
    kFormat.reject(label, "header key fingerprint " + hex16(header_fp) +
                              " does not match the payload key " +
                              hex16(entry.key.fingerprint()) +
                              " — corrupt or hand-edited entry");
  }
  return entry;
}

void PolicyEntry::save_file(const std::string& path) const {
  common::save_sealed_file(path, kFormat,
                           [&](std::ostream& out) { write(out); });
}

PolicyEntry PolicyEntry::load_file(const std::string& path) {
  PolicyEntry entry;
  common::load_sealed_file(path, kFormat,
                           [&](std::istream& in) { entry = read(in, path); });
  return entry;
}

PolicyShape PolicyEntry::shape() const {
  return {governor_name, opp_count, core_count, key.platform_fingerprint};
}

void PolicyEntry::set_shape(const PolicyShape& shape) {
  governor_name = shape.governor_name;
  opp_count = shape.opp_count;
  core_count = shape.core_count;
  key.platform_fingerprint = shape.platform_fingerprint;
}

std::string PolicyEntry::state_for(const gov::Governor& governor) const {
  if (governor.name() != governor_name) {
    throw QlibError("policy entry trained for governor '" + governor_name +
                    "' cannot warm-start '" + governor.name() + "'");
  }
  if (kind == PolicyBlobKind::kLeaf) return blob;
  auto merger = governor.make_state_merger();
  if (!merger) {
    throw QlibError("merged policy entry for '" + governor_name +
                    "' but the governor does not support state merging");
  }
  try {
    merger->add_accumulator(blob);
    return merger->extract_state();
  } catch (const gov::StateMergeError& e) {
    throw QlibError("policy entry for '" + governor_name + "': " + e.what());
  }
}

// --- make_leaf_entry ---------------------------------------------------------

PolicyEntry make_leaf_entry(const hw::Platform& platform,
                            const gov::Governor& governor,
                            const std::string& workload, double fps,
                            const std::string& governor_spec,
                            std::uint64_t epochs_trained) {
  PolicyEntry entry;
  entry.key = PolicyKey::make(
      platform, workload, fps,
      governor_spec.empty() ? governor.name() : governor_spec);
  entry.set_shape(PolicyShape::of(platform, governor));
  entry.kind = PolicyBlobKind::kLeaf;
  {
    std::ostringstream out(std::ios::binary);
    governor.save_state(out);
    entry.blob = out.str();
  }
  entry.provenance.epochs_trained = epochs_trained;
  entry.provenance.sources = 1;
  if (auto merger = governor.make_state_merger()) {
    try {
      merger->add_state(entry.blob);
      entry.provenance.visit_weight = merger->weight();
    } catch (const gov::StateMergeError& e) {
      throw QlibError("policy: governor '" + governor.name() +
                      "' produced unparsable state: " + e.what());
    }
  }
  common::Fnv1a64 h;
  h.u64(entry.key.fingerprint());
  h.u64(epochs_trained);
  h.bytes(entry.blob.data(), entry.blob.size());
  entry.provenance.source_fingerprint = h.value();
  return entry;
}

// --- merge_entries -----------------------------------------------------------

PolicyEntry merge_entries(const std::vector<PolicyEntry>& entries) {
  if (entries.empty()) {
    throw QlibError("policy merge: no entries to merge");
  }
  const PolicyEntry& first = entries.front();
  // Identity skew gets its own specific error before any state bytes are
  // touched.
  const PolicyShape shape = first.shape();
  for (const PolicyEntry& e : entries) {
    const std::string skew = shape.mismatch(e.shape());
    if (!skew.empty()) throw QlibError("policy merge: " + skew);
    if (e.key.governor_spec != first.key.governor_spec) {
      throw QlibError("policy merge: governor spec mismatch ('" +
                      first.key.governor_spec + "' vs '" +
                      e.key.governor_spec + "')");
    }
    if (e.key != first.key) {
      throw QlibError("policy merge: key mismatch ('" + first.key.canonical() +
                      "' vs '" + e.key.canonical() + "')");
    }
  }

  std::unique_ptr<gov::Governor> prototype;
  try {
    prototype = gov::governor_registry().create(first.key.governor_spec, 0);
  } catch (const std::exception& e) {
    throw QlibError("policy merge: cannot construct governor '" +
                    first.key.governor_spec + "' to merge: " + e.what());
  }
  auto merger = prototype->make_state_merger();
  if (!merger) {
    throw QlibError("policy merge: governor '" + first.governor_name +
                    "' has no mergeable learning state");
  }

  PolicyEntry merged;
  merged.key = first.key;
  merged.set_shape(shape);
  merged.kind = PolicyBlobKind::kMerged;
  try {
    for (const PolicyEntry& e : entries) {
      if (e.kind == PolicyBlobKind::kLeaf) {
        merger->add_state(e.blob);
      } else {
        merger->add_accumulator(e.blob);
      }
      merged.provenance.epochs_trained += e.provenance.epochs_trained;
      merged.provenance.source_fingerprint ^=
          e.provenance.source_fingerprint;
    }
  } catch (const gov::StateMergeError& e) {
    throw QlibError(std::string("policy merge: ") + e.what());
  }
  // The merger counts leaves folded in directly and carried by accumulators.
  merged.provenance.visit_weight = merger->weight();
  merged.provenance.sources = merger->sources();
  merged.blob = merger->accumulator();
  return merged;
}

}  // namespace prime::qlib
