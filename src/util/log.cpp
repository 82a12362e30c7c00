#include "util/log.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace sww::util {

namespace {

// Monotonic origin for default-sink timestamps, captured at first use.
std::chrono::steady_clock::time_point ProcessStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ProcessStart())
          .count());
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

std::optional<LogLevel> ParseLogLevel(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  return std::nullopt;
}

std::string FormatLogJson(double elapsed_seconds, LogLevel level,
                          std::string_view component,
                          std::string_view message) {
  char ts[48];
  std::snprintf(ts, sizeof(ts), "%.6f", elapsed_seconds);
  std::string line = "{\"ts\":";
  line += ts;
  line += ",\"level\":\"";
  line += LogLevelName(level);
  line += "\",\"component\":";
  AppendJsonString(line, component);
  line += ",\"message\":";
  AppendJsonString(line, message);
  line += '}';
  return line;
}

Logger::Logger() {
  ProcessStart();  // pin the timestamp origin to logger construction
  if (const char* env = std::getenv("SWW_LOG_LEVEL"); env != nullptr) {
    if (std::optional<LogLevel> parsed = ParseLogLevel(env)) {
      SetLevel(*parsed);
    }
  }
  if (const char* env = std::getenv("SWW_LOG_FORMAT"); env != nullptr) {
    if (ToLower(env) == "json") SetFormat(LogFormat::kJson);
  }
  sink_ = [this](LogLevel level, std::string_view component,
                 std::string_view message) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ProcessStart())
            .count();
    if (format() == LogFormat::kJson) {
      const std::string line =
          FormatLogJson(elapsed, level, component, message);
      std::fprintf(stderr, "%s\n", line.c_str());
      return;
    }
    std::fprintf(stderr, "[%10.6f] [%s] %.*s: %.*s\n", elapsed,
                 LogLevelName(level), static_cast<int>(component.size()),
                 component.data(), static_cast<int>(message.size()),
                 message.data());
  };
}

Logger& Logger::Instance() {
  static Logger logger;
  return logger;
}

Logger::Sink Logger::SetSink(Sink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  Sink previous = std::move(sink_);
  sink_ = std::move(sink);
  return previous;
}

void Logger::Log(LogLevel level, std::string_view component,
                 std::string_view message) {
  if (static_cast<int>(level) < static_cast<int>(this->level())) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_) sink_(level, component, message);
}

void LogDebug(std::string_view component, std::string_view message) {
  Logger::Instance().Log(LogLevel::kDebug, component, message);
}
void LogInfo(std::string_view component, std::string_view message) {
  Logger::Instance().Log(LogLevel::kInfo, component, message);
}
void LogWarn(std::string_view component, std::string_view message) {
  Logger::Instance().Log(LogLevel::kWarn, component, message);
}
void LogError(std::string_view component, std::string_view message) {
  Logger::Instance().Log(LogLevel::kError, component, message);
}

LogRateLimiter::LogRateLimiter() : LogRateLimiter(Options{}) {}

LogRateLimiter::LogRateLimiter(Options options)
    : options_(options),
      micro_tokens_(static_cast<std::int64_t>(options.burst * 1e6)) {}

bool LogRateLimiter::Admit(std::uint64_t* suppressed) {
  if (suppressed != nullptr) *suppressed = 0;
  const std::uint64_t now = MonotonicNanos();
  // Refill: one thread claims the elapsed interval by swapping the refill
  // timestamp forward; the claimed nanoseconds convert to micro-tokens.
  const std::uint64_t last =
      last_refill_nanos_.exchange(now, std::memory_order_relaxed);
  if (now > last) {
    const double earned =
        static_cast<double>(now - last) * 1e-9 * options_.tokens_per_second * 1e6;
    const auto cap = static_cast<std::int64_t>(options_.burst * 1e6);
    std::int64_t current = micro_tokens_.load(std::memory_order_relaxed);
    while (current < cap) {
      const std::int64_t next =
          std::min(cap, current + static_cast<std::int64_t>(earned));
      if (micro_tokens_.compare_exchange_weak(current, next,
                                              std::memory_order_relaxed)) {
        break;
      }
    }
  }
  // Consume one token (1e6 micro-tokens) if the balance covers it.
  std::int64_t current = micro_tokens_.load(std::memory_order_relaxed);
  while (current >= 1'000'000) {
    if (micro_tokens_.compare_exchange_weak(current, current - 1'000'000,
                                            std::memory_order_relaxed)) {
      if (suppressed != nullptr) {
        *suppressed =
            suppressed_since_admit_.exchange(0, std::memory_order_relaxed);
      } else {
        suppressed_since_admit_.store(0, std::memory_order_relaxed);
      }
      return true;
    }
  }
  suppressed_since_admit_.fetch_add(1, std::memory_order_relaxed);
  total_suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void LogRateLimited(LogRateLimiter& limiter, LogLevel level,
                    std::string_view component, std::string_view message) {
  std::uint64_t suppressed = 0;
  if (!limiter.Admit(&suppressed)) return;
  if (suppressed == 0) {
    Logger::Instance().Log(level, component, message);
    return;
  }
  std::string annotated(message);
  annotated += " (rate-limited: ";
  annotated += std::to_string(suppressed);
  annotated += " suppressed)";
  Logger::Instance().Log(level, component, annotated);
}

}  // namespace sww::util
