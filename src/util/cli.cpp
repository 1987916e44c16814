#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/file.hpp"

namespace manytiers::cli {

void detail::out_of_range(std::string_view flag, std::string_view text,
                          double lo, double hi) {
  std::string message(flag);
  message += ": expected a number in [" + json::number_text(lo) + ", " +
             json::number_text(hi) + "], got ";
  json::write_string(message, text);
  throw std::invalid_argument(message);
}

Flags::Flags(std::string program, std::string synopsis, std::string footer)
    : program_(std::move(program)),
      synopsis_(std::move(synopsis)),
      footer_(std::move(footer)) {}

Flags& Flags::value(std::string name, std::string value_name,
                    std::string help, Target target) {
  flags_.push_back({std::move(name), std::move(value_name), std::move(help),
                    std::move(target)});
  return *this;
}

Flags& Flags::toggle(std::string name, std::string help, bool& on) {
  flags_.push_back({std::move(name), "", std::move(help),
                    [&on](std::string_view, std::string_view) { on = true; }});
  return *this;
}

Flags& Flags::action(std::string name, std::string help,
                     std::function<void()> act) {
  flags_.push_back({std::move(name), "", std::move(help),
                    [act = std::move(act)](std::string_view,
                                           std::string_view) { act(); },
                    /*ends_run=*/true});
  return *this;
}

Flags& Flags::positional(std::function<void(std::string_view)> take) {
  positional_ = std::move(take);
  return *this;
}

Flags& Flags::check(std::function<void()> validate) {
  checks_.push_back(std::move(validate));
  return *this;
}

std::optional<int> Flags::parse(int argc, const char* const* argv,
                                std::ostream& out, std::ostream& err) const {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(out);
        return 0;
      }
      const auto flag =
          std::find_if(flags_.begin(), flags_.end(),
                       [&](const Flag& f) { return f.name == arg; });
      if (flag == flags_.end()) {
        if (!positional_ || arg.empty() || arg.front() == '-') {
          return fail(std::string(arg) + ": unknown flag", err);
        }
        positional_(arg);
      } else if (flag->value_name.empty()) {
        flag->set(arg, "");
        if (flag->ends_run) return 0;
      } else if (i + 1 == argc) {
        return fail(std::string(arg) + ": requires a value " +
                        flag->value_name,
                    err);
      } else {
        flag->set(arg, argv[++i]);
      }
    }
    for (const auto& validate : checks_) validate();
  } catch (const std::invalid_argument& e) {
    return fail(e.what(), err);
  }
  return std::nullopt;
}

void Flags::usage(std::ostream& os) const {
  os << "usage: " << program_ << ' ' << synopsis_ << '\n';
  const auto line = [&os](std::string left, std::string_view help) {
    left.insert(0, "  ");
    left.resize(std::max<std::size_t>(left.size() + 2, 26), ' ');
    os << left << help << '\n';
  };
  for (const Flag& f : flags_) {
    line(f.value_name.empty() ? f.name : f.name + ' ' + f.value_name, f.help);
  }
  line("-h, --help", "print this help and exit");
  if (!footer_.empty()) os << footer_;
}

int Flags::fail(std::string_view message, std::ostream& err) const {
  err << program_ << ": " << message << '\n';
  usage(err);
  return 2;
}

void ObsFlags::add_to(Flags& flags) {
  flags
      .value("--trace", "PATH",
             "write a Chrome-trace-event JSON timeline (Perfetto-loadable)",
             trace)
      .value("--metrics", "PATH",
             "write the obs-registry metrics sidecar to PATH at the end",
             metrics)
      .value("--metrics-interval-ms", "N",
             "also stream delta ticks every N ms to PATH's .series.json",
             millis(metrics_interval_ms))
      .check([this] {
        if (metrics_interval_ms > 0.0 && metrics.empty()) {
          throw std::invalid_argument(
              "--metrics-interval-ms: requires --metrics");
        }
      });
}

Observability::Observability(ObsFlags flags, const std::string& process_name)
    : flags_(std::move(flags)) {
  if (!flags_.trace.empty()) {
    obs::Tracer::instance().start(flags_.trace);
  } else {
    obs::maybe_start_trace_from_env();
  }
  if (obs::Tracer::instance().active()) {
    obs::Tracer::instance().set_process_name(process_name);
  }
  if (!flags_.metrics.empty()) obs::set_enabled(true);
}

void Observability::start_series() {
  if (flags_.metrics_interval_ms > 0.0) {
    series_.emplace(obs::PeriodicSnapshotter::Options{
        obs::series_path_for(flags_.metrics), flags_.metrics_interval_ms});
    series_->start();
  }
}

void Observability::finish() {
  if (series_) series_->stop();
  if (!flags_.metrics.empty()) {
    util::write_file_durable(
        flags_.metrics,
        obs::snapshot_to_json(obs::Registry::instance().snapshot()));
  }
  obs::Tracer::instance().flush();
}

}  // namespace manytiers::cli
