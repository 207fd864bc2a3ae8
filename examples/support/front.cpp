#include "support/front.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/registry.hpp"
#include "common/strings.hpp"

namespace prime::front {

int run_main(const std::string& name, int argc, const char* const* argv,
             const Body& body, std::ostream& err) {
  try {
    common::Config cfg;
    cfg.parse_args(argc, argv);
    const int status = body(cfg);
    if (status != 0) return status;
    const std::vector<std::string> unread = cfg.unrequested_keys();
    if (unread.empty()) return 0;
    err << common::UnknownKeyError("main", name, unread, cfg.requested_keys())
               .what()
        << "\n";
  } catch (const std::exception& e) {
    err << name << ": " << e.what() << "\n";
  }
  return 1;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  if (getrusage(RUSAGE_SELF, &self) != 0 ||
      getrusage(RUSAGE_CHILDREN, &children) != 0) {
    return -1.0;
  }
  // ru_maxrss is kilobytes on Linux but bytes on macOS.
#ifdef __APPLE__
  constexpr double kUnitsPerMb = 1024.0 * 1024.0;
#else
  constexpr double kUnitsPerMb = 1024.0;
#endif
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         kUnitsPerMb;
}

void check_rss_bound(double rss_mb, double bound_mb) {
  if (bound_mb <= 0.0) return;
  const std::string bound = common::format_double(bound_mb, 1) + " MB bound";
  if (rss_mb < 0.0) {
    throw std::runtime_error("peak RSS could not be measured, so the " +
                             bound + " cannot be enforced");
  }
  if (rss_mb > bound_mb) {
    throw std::runtime_error("peak RSS " + common::format_double(rss_mb, 1) +
                             " MB exceeds the " + bound);
  }
}

}  // namespace prime::front
