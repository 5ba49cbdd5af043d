// ASCII table / CSV emitter for the bench harnesses.
//
// Every experiment binary prints its results as one or more of these
// tables, and bench::Reporter mirrors each into the run's
// BENCH_<id>.json. Numeric cells are right-aligned, text left-aligned.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace pramsim::util {

/// Escape a string for embedding inside a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

class Table {
 public:
  using Cell = std::variant<std::string, std::int64_t, double>;

  explicit Table(std::vector<std::string> headers);

  /// Title line printed above the table.
  void set_title(std::string title) { title_ = std::move(title); }

  void add_row(std::vector<Cell> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return headers_.size(); }

  /// Render with box-drawing ASCII. `precision` controls double formatting.
  [[nodiscard]] std::string to_string(int precision = 3) const;
  [[nodiscard]] std::string to_csv(int precision = 6) const;
  /// Machine-readable form: {"title":..., "headers":[...], "rows":[[...]]}.
  /// Numeric cells stay numbers; strings are JSON-escaped.
  [[nodiscard]] std::string to_json() const;

  /// Print to stdout.
  void print(int precision = 3) const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace pramsim::util
