// Fixed-width console tables, used by the bench experiments to print the
// paper's tables/series in a readable form next to the CSV output.
#pragma once

#include <string>
#include <vector>

namespace ufc {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` decimal places.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 2);

  /// Renders the table (header, separator, rows) as a single string.
  std::string to_string() const;

  /// Prints to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed decimal places.
std::string fixed(double value, int precision = 2);

}  // namespace ufc
