#include "net/pump.hpp"

#include "obs/registry.hpp"

namespace sww::net {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {
// Process-wide pump telemetry: how often the glue woke up and how many
// bytes it actually shuttled (both directions, all endpoints).
obs::Counter& PumpWakeups() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.pump.wakeups");
  return counter;
}
obs::Counter& PumpBytes() {
  static obs::Counter& counter =
      obs::Registry::Default().GetCounter("net.pump.bytes_pumped");
  return counter;
}
// Distribution of per-wakeup write sizes: the live view of send-queue
// burstiness (a fat tail here means the connection batches its output
// behind flow control instead of streaming).
obs::Histogram& PumpWriteBytes() {
  static obs::Histogram& histogram =
      obs::Registry::Default().GetHistogram("net.pump.write_bytes");
  return histogram;
}
// Bytes queued in the connection's output arena at wakeup — the send-queue
// depth a live scrape sees while traffic is flowing.
obs::Gauge& PumpBacklogBytes() {
  static obs::Gauge& gauge =
      obs::Registry::Default().GetGauge("net.pump.backlog_bytes");
  return gauge;
}
}  // namespace

Result<PumpResult> PumpOnce(http2::Connection& connection, Transport& transport) {
  PumpResult result;
  PumpWakeups().Add();
  if (connection.HasOutput()) {
    // Zero-copy drain: write the arena view straight to the transport and
    // recycle the arena's storage.
    const util::BytesView out = connection.OutputView();
    PumpBacklogBytes().Set(static_cast<double>(out.size()));
    if (Status status = transport.Write(out); !status.ok()) {
      return status.error();
    }
    PumpBytes().Add(out.size());
    PumpWriteBytes().Observe(static_cast<double>(out.size()));
    connection.ClearOutput();
    result.made_progress = true;
    PumpBacklogBytes().Set(0.0);
  }
  auto incoming = transport.Read();
  if (!incoming) {
    if (incoming.error().code == ErrorCode::kClosed) {
      result.peer_closed = true;
      return result;
    }
    return incoming.error();
  }
  if (!incoming.value().empty()) {
    PumpBytes().Add(incoming.value().size());
    if (Status status = connection.Receive(incoming.value()); !status.ok()) {
      // Flush the GOAWAY the connection queued before reporting.
      if (connection.HasOutput()) {
        (void)transport.Write(connection.OutputView());
        connection.ClearOutput();
      }
      return status.error();
    }
    result.made_progress = true;
  }
  return result;
}

void DirectLinkExchange(http2::Connection& a, http2::Connection& b,
                        int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    bool progress = false;
    PumpWakeups().Add();
    // Receive() only appends to the *receiver's* output arena, so handing b
    // a borrowed view of a's arena is safe; clear a's arena afterwards.
    if (a.HasOutput()) {
      const util::BytesView out = a.OutputView();
      PumpBytes().Add(out.size());
      PumpWriteBytes().Observe(static_cast<double>(out.size()));
      (void)b.Receive(out);
      a.ClearOutput();
      progress = true;
    }
    if (b.HasOutput()) {
      const util::BytesView out = b.OutputView();
      PumpBytes().Add(out.size());
      PumpWriteBytes().Observe(static_cast<double>(out.size()));
      (void)a.Receive(out);
      b.ClearOutput();
      progress = true;
    }
    if (!progress) return;
  }
}

}  // namespace sww::net
