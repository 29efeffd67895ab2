#include "quamax/obs/metrics.hpp"

#include <ostream>

#include "json.hpp"

namespace quamax::obs {
namespace {

using json::escaped;
using json::num;

void write_sketch_json(const QuantileSketch& s, std::ostream& out) {
  out << "{\"count\":" << s.count() << ",\"mean\":" << num(s.mean())
      << ",\"min\":" << num(s.min()) << ",\"max\":" << num(s.max())
      << ",\"p50\":" << num(s.quantile(50.0))
      << ",\"p95\":" << num(s.quantile(95.0))
      << ",\"p99\":" << num(s.quantile(99.0)) << "}";
}

const char* kind_name(SloSpec::Kind kind) {
  return kind == SloSpec::Kind::kMissRate ? "miss_rate" : "p99";
}

}  // namespace

void write_metrics_json(const WindowedCollector& collector,
                        const std::vector<SloReport>& slos,
                        std::ostream& out) {
  const auto& t = collector.totals();
  out << "{\n\"schema\":\"quamax-metrics-v1\",\n"
      << "\"window_us\":" << num(collector.width_us())
      << ",\"horizon_us\":" << num(collector.horizon_us())
      << ",\"num_windows\":" << collector.windows().size()
      << ",\"num_devices\":" << collector.num_devices() << ",\n";

  out << "\"totals\":{"
      << "\"submitted\":" << t.submitted << ",\"completed\":" << t.completed
      << ",\"fallbacks\":" << t.fallbacks << ",\"dropped\":" << t.dropped
      << ",\"failed\":" << t.failed << ",\"retries\":" << t.retries
      << ",\"missed\":" << t.missed << ",\"resolved\":" << t.resolved
      << ",\"waves\":" << t.waves << ",\"failed_waves\":" << t.failed_waves
      << ",\"bits\":" << t.bits
      << ",\"wave_busy_us\":" << num(t.wave_busy_us)
      << ",\"energy_joules\":" << num(t.energy_j)
      << ",\"joules_per_bit\":" << num(t.joules_per_bit) << ",\"latency_us\":";
  write_sketch_json(t.latency, out);
  out << "},\n";

  out << "\"windows\":[";
  bool first = true;
  for (const auto& w : collector.windows()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"index\":" << w.index << ",\"start_us\":" << num(w.start_us)
        << ",\"end_us\":" << num(w.end_us) << ",\"submitted\":" << w.submitted
        << ",\"completed\":" << w.completed << ",\"fallbacks\":" << w.fallbacks
        << ",\"dropped\":" << w.dropped << ",\"failed\":" << w.failed
        << ",\"retries\":" << w.retries << ",\"missed\":" << w.missed
        << ",\"resolved\":" << w.resolved << ",\"waves\":" << w.waves
        << ",\"failed_waves\":" << w.failed_waves << ",\"bits\":" << w.bits
        << ",\"queue_depth\":" << w.queue_depth
        << ",\"busy_us\":" << num(w.busy_us)
        << ",\"outage_us\":" << num(w.outage_us)
        << ",\"energy_joules\":" << num(w.energy_j)
        << ",\"miss_rate\":" << num(w.miss_rate)
        << ",\"occupancy\":" << num(w.occupancy)
        << ",\"watts\":" << num(w.watts)
        << ",\"cum_joules_per_bit\":" << num(w.cum_joules_per_bit)
        << ",\"latency_us\":";
    write_sketch_json(w.latency, out);
    out << "}";
  }
  out << "\n],\n";

  out << "\"devices\":[";
  first = true;
  for (const auto& d : collector.devices()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"device\":" << d.device << ",\"waves\":" << d.waves
        << ",\"failed_waves\":" << d.failed_waves
        << ",\"program_us\":" << num(d.program_us)
        << ",\"anneal_us\":" << num(d.anneal_us)
        << ",\"readout_us\":" << num(d.readout_us)
        << ",\"aborted_us\":" << num(d.aborted_us)
        << ",\"outage_us\":" << num(d.outage_us)
        << ",\"idle_us\":" << num(d.idle_us)
        << ",\"busy_us\":" << num(d.busy_us())
        << ",\"energy_joules\":" << num(d.energy_j) << "}";
  }
  out << "\n],\n";

  out << "\"slos\":[";
  first = true;
  for (const auto& r : slos) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << escaped(r.spec.name) << "\",\"kind\":\""
        << kind_name(r.spec.kind) << "\",\"threshold\":"
        << num(r.spec.threshold) << ",\"long_windows\":" << r.spec.long_windows
        << ",\"short_windows\":" << r.spec.short_windows
        << ",\"breached_windows\":" << r.breached_windows
        << ",\"worst_burn\":" << num(r.worst_burn) << ",\"alerts\":[";
    bool first_alert = true;
    for (const auto& a : r.alerts) {
      if (!first_alert) out << ",";
      first_alert = false;
      out << "{\"window\":" << a.window << ",\"start_us\":" << num(a.start_us)
          << ",\"end_us\":" << num(a.end_us) << ",\"value\":" << num(a.value)
          << ",\"long_value\":" << num(a.long_value)
          << ",\"burn\":" << num(a.burn) << "}";
    }
    out << "]}";
  }
  out << "\n]\n}\n";
}

}  // namespace quamax::obs
