/**
 * @file
 * Metric collection for the benchmark driver: a log-linear latency
 * histogram (fixed memory, so the driver's own footprint does not grow
 * with throughput) and a named, unit-tagged metric set that refuses
 * malformed names and prints itself as a table and as JSON.
 */

#ifndef NVBENCH_METRICS_H
#define NVBENCH_METRICS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace nvbench {

/**
 * Log-linear histogram of non-negative integer samples (ns). Values
 * below 128 get exact buckets; above, every power of two is split into
 * 128 buckets, so a bucket is at most 0.8% wide. Percentiles
 * interpolate within the bucket by rank.
 */
class Histogram
{
  public:
    Histogram();

    void
    record(uint64_t v)
    {
        ++counts_[index(v)];
        ++n_;
    }

    void merge(const Histogram &other);
    uint64_t count() const { return n_; }

    /** The q-quantile (q in [0, 1]); 0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr unsigned kSubBits = 7;
    static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

    static unsigned index(uint64_t v);
    static double bucketLow(unsigned idx);
    static double bucketWidth(unsigned idx);

    std::vector<uint64_t> counts_;
    uint64_t n_ = 0;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Samples behind a percentile (0 for counts and ratios). */
    uint64_t samples = 0;
};

class MetricSet
{
  public:
    /** Add a metric. Returns false, adding nothing, when the name is
     *  not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit, the
     *  unit is not 1-16 of [A-Za-z0-9_/%.-], the name is taken, or the
     *  value is not finite. */
    bool add(const std::string &name, const std::string &unit,
             double value, uint64_t samples = 0);

    const std::vector<Metric> &all() const { return metrics_; }
    const Metric *find(std::string_view name) const;

    /** {"name": {"value": v, "unit": u, "samples": n}, ...} */
    std::string json() const;
    void print(std::FILE *out, const char *title) const;

  private:
    std::vector<Metric> metrics_;
};

} // namespace nvbench

#endif // NVBENCH_METRICS_H
