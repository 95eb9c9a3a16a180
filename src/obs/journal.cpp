#include "obs/journal.hpp"

#include <chrono>

#include "common/contracts.hpp"

namespace mobsrv::obs {

const char* event_name(EventType type) noexcept {
  switch (type) {
    case EventType::kOpen:
      return "open";
    case EventType::kClose:
      return "close";
    case EventType::kCheckpoint:
      return "checkpoint";
    case EventType::kBusy:
      return "busy";
    case EventType::kError:
      return "error";
    case EventType::kRestore:
      return "restore";
    case EventType::kDrain:
      return "drain";
    case EventType::kThrottle:
      return "throttle";
    case EventType::kCompact:
      return "compact";
    case EventType::kRetry:
      return "retry";
    case EventType::kDegraded:
      return "degraded";
    case EventType::kTimeout:
      return "timeout";
  }
  return "open";
}

namespace {

std::uint64_t wall_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Journal::Journal(std::size_t capacity) {
  MOBSRV_CHECK_MSG(capacity >= 1, "journal capacity must be >= 1");
  ring_.resize(capacity);
}

void Journal::record(EventType type, std::string tenant, std::string detail) {
  Event& slot = ring_[static_cast<std::size_t>(total_ % ring_.size())];
  slot.seq = total_;
  slot.unix_ms = wall_ms();
  slot.type = type;
  slot.tenant = std::move(tenant);
  slot.detail = std::move(detail);
  ++total_;
}

std::vector<Event> Journal::events() const {
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(total_ - dropped()));
  for (std::uint64_t seq = dropped(); seq < total_; ++seq) out.push_back(at(seq));
  return out;
}

io::Json Journal::event_to_json(const Event& event) {
  io::Json doc = io::Json::object();
  doc.set("seq", event.seq);
  doc.set("ms", event.unix_ms);
  doc.set("event", event_name(event.type));
  if (!event.tenant.empty()) doc.set("tenant", event.tenant);
  if (!event.detail.empty()) doc.set("detail", event.detail);
  return doc;
}

}  // namespace mobsrv::obs
