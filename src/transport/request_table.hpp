#pragma once
// The pending-request table of the asynchronous request/response clients
// (§3.6): per request id, the caller's `Entry` (callback and whatever
// else finishes the request) and the timeout timer armed for it. The
// table owns those timers: close() cancels one, and the destructor
// cancels every timer still armed, so a client destroyed with requests in
// flight (a crashed node's services) never has a timeout fire into freed
// memory. Callers keep their own id counters, which are wire ids.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "net/stack.hpp"

namespace ndsm::transport {

template <typename Entry>
class RequestTable {
 public:
  explicit RequestTable(net::Stack& stack) : stack_(stack) {}
  ~RequestTable() {
    // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
    for (auto& [id, slot] : slots_) stack_.cancel(slot.timer);
  }

  RequestTable(const RequestTable&) = delete;
  RequestTable& operator=(const RequestTable&) = delete;

  // Record `entry` under `id` and arm `on_timeout`, which is expected to
  // close(id) itself, to fire after `timeout`.
  template <typename OnTimeout>
  void open(std::uint64_t id, Entry entry, Time timeout, OnTimeout&& on_timeout) {
    const EventId timer = stack_.schedule_after(timeout, std::forward<OnTimeout>(on_timeout));
    slots_.emplace(id, Slot{std::move(entry), timer});
  }

  // The open request `id`, or nullptr.
  [[nodiscard]] Entry* find(std::uint64_t id) {
    const auto it = slots_.find(id);
    return it == slots_.end() ? nullptr : &it->second.entry;
  }

  // Cancel the timer of request `id`, forget it and return its entry;
  // nullopt for a late (already closed) or unknown id.
  std::optional<Entry> close(std::uint64_t id) {
    const auto it = slots_.find(id);
    if (it == slots_.end()) return std::nullopt;
    stack_.cancel(it->second.timer);
    std::optional<Entry> entry{std::move(it->second.entry)};
    slots_.erase(it);
    return entry;
  }

 private:
  struct Slot {
    Entry entry;
    EventId timer;
  };

  net::Stack& stack_;
  std::unordered_map<std::uint64_t, Slot> slots_;
};

}  // namespace ndsm::transport
