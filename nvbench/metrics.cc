#include "metrics.h"

#include <bit>
#include <cmath>

namespace nvbench {

namespace {

constexpr unsigned kOctaves = 64 - 7 + 1;

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                  c == '%' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/** A double as JSON with every significant digit. */
std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

Histogram::Histogram() : counts_(size_t(kOctaves) * kSub, 0) {}

unsigned
Histogram::index(uint64_t v)
{
    if (v < kSub)
        return unsigned(v);
    unsigned e = 63u - unsigned(std::countl_zero(v)); // >= kSubBits
    unsigned shift = e - kSubBits;
    return unsigned((e - kSubBits + 1) * kSub + ((v >> shift) - kSub));
}

double
Histogram::bucketLow(unsigned idx)
{
    if (idx < kSub)
        return double(idx);
    unsigned octave = idx / unsigned(kSub); // >= 1
    uint64_t sub = idx % kSub;
    return std::ldexp(double(kSub + sub), int(octave - 1));
}

double
Histogram::bucketWidth(unsigned idx)
{
    return idx < kSub ? 1.0 : std::ldexp(1.0, int(idx / kSub - 1));
}

void
Histogram::merge(const Histogram &other)
{
    for (size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    n_ += other.n_;
}

double
Histogram::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    // Rank of the sample at quantile q, counted from 0.
    double rank = q * double(n_ - 1);
    uint64_t below = 0;
    for (unsigned i = 0; i < counts_.size(); ++i) {
        uint64_t c = counts_[i];
        if (c == 0)
            continue;
        if (double(below + c) > rank) {
            double frac = (rank - double(below) + 0.5) / double(c);
            return bucketLow(i) + frac * bucketWidth(i);
        }
        below += c;
    }
    return 0.0; // unreachable: rank < n_
}

bool
MetricSet::add(const std::string &name, const std::string &unit,
               double value, uint64_t samples)
{
    if (!validMetricName(name) || !validUnit(unit) ||
        !std::isfinite(value) || find(name))
        return false;
    metrics_.push_back({name, unit, value, samples});
    return true;
}

const Metric *
MetricSet::find(std::string_view name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
MetricSet::json() const
{
    // Names and units are validated on add, so they need no escaping.
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": \"" + m.unit +
               "\", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return out + "}";
}

void
MetricSet::print(std::FILE *out, const char *title) const
{
    std::fprintf(out, "%s\n", title);
    for (const Metric &m : metrics_) {
        std::fprintf(out, "  %-36s %16.6g %-8s", m.name.c_str(), m.value,
                     m.unit.c_str());
        if (m.samples)
            std::fprintf(out, "  (n=%llu)",
                         static_cast<unsigned long long>(m.samples));
        std::fprintf(out, "\n");
    }
}

} // namespace nvbench
