#include "http2/stream.hpp"

namespace sww::http2 {

const char* StreamStateName(StreamState state) {
  switch (state) {
    case StreamState::kIdle: return "idle";
    case StreamState::kOpen: return "open";
    case StreamState::kHalfClosedLocal: return "half-closed(local)";
    case StreamState::kHalfClosedRemote: return "half-closed(remote)";
    case StreamState::kClosed: return "closed";
  }
  return "?";
}

util::Status FlowWindow::Widen(std::int64_t increment) {
  if (window_ + increment > 0x7fffffffLL) {
    return util::Error(util::ErrorCode::kFlowControl,
                       "flow-control window would exceed 2^31-1");
  }
  window_ += increment;
  return util::Status::Ok();
}

StreamState StateAfterEndStream(StreamState state, bool local) {
  if (state == StreamState::kOpen) {
    return local ? StreamState::kHalfClosedLocal : StreamState::kHalfClosedRemote;
  }
  const StreamState other_side_closed =
      local ? StreamState::kHalfClosedRemote : StreamState::kHalfClosedLocal;
  return state == other_side_closed ? StreamState::kClosed : state;
}

}  // namespace sww::http2
