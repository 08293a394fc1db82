// Console / CSV table writer used by the benchmark harnesses to print the
// same rows and series the paper's tables and figures report.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace mlsim {

class Table {
 public:
  using Cell = std::variant<std::string, double, std::int64_t>;

  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<Cell> cells);

  /// Aligned fixed-width console rendering.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (no embedded quotes expected in our data).
  void write_csv(std::ostream& os) const;

  /// Formatting precision for double cells (default 4 significant decimals).
  void set_precision(int digits) { precision_ = digits; }

 private:
  std::string render(const Cell& c) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

}  // namespace mlsim
