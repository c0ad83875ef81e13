// End-to-end contract for the bench JSON writer: JsonRow must escape every
// control character (a stray newline/tab in a field used to produce an
// unparseable BENCH_*.json), and a written JsonReport must parse back as
// real JSON with the original strings intact. The table printer shares the
// row's fields. The parser below is a minimal RFC 8259 subset (objects /
// arrays / strings / numbers) — enough to reject any malformed output.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace mns {
namespace {

// ---------------------------------------------------------------- parser --

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r'))
      ++i;
  }
  char peek() {
    skip_ws();
    if (i >= s.size()) throw std::runtime_error("json: unexpected end");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("json: expected '") + c + "' at " +
                               std::to_string(i));
    ++i;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (i >= s.size()) throw std::runtime_error("json: unterminated string");
      char c = s[i++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20)
        throw std::runtime_error("json: raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i >= s.size()) throw std::runtime_error("json: dangling escape");
      char e = s[i++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i + 4 > s.size()) throw std::runtime_error("json: bad \\u");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              throw std::runtime_error("json: bad hex digit");
          }
          if (code > 0xFF) throw std::runtime_error("json: non-ASCII \\u");
          out += static_cast<char>(code);
          break;
        }
        default:
          throw std::runtime_error("json: unknown escape");
      }
    }
    return out;
  }
  double parse_number() {
    skip_ws();
    std::size_t start = i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                            s[i] == 'e' || s[i] == 'E'))
      ++i;
    if (i == start) throw std::runtime_error("json: expected number");
    return std::stod(s.substr(start, i - start));
  }
  /// Flat value: string or number (all the writer emits).
  std::pair<std::string, double> parse_scalar(bool* is_string) {
    if (peek() == '"') {
      *is_string = true;
      return {parse_string(), 0.0};
    }
    *is_string = false;
    return {"", parse_number()};
  }
};

struct ParsedReport {
  std::string bench;
  double wall_time_ms = 0.0;
  std::vector<std::map<std::string, std::string>> string_fields;
  std::vector<std::map<std::string, double>> number_fields;
};

ParsedReport parse_report(const std::string& text) {
  JsonParser p{text};
  ParsedReport out;
  p.expect('{');
  bool first_key = true;
  while (p.peek() != '}') {
    if (!first_key) p.expect(',');
    first_key = false;
    std::string key = p.parse_string();
    p.expect(':');
    if (key == "bench") {
      out.bench = p.parse_string();
    } else if (key == "wall_time_ms") {
      out.wall_time_ms = p.parse_number();
    } else if (key == "rows") {
      p.expect('[');
      if (p.peek() == ']') {
        ++p.i;
      } else {
        while (true) {
          p.expect('{');
          out.string_fields.emplace_back();
          out.number_fields.emplace_back();
          bool first = true;
          while (p.peek() != '}') {
            if (!first) p.expect(',');
            first = false;
            std::string k = p.parse_string();
            p.expect(':');
            bool is_string = false;
            auto [str, num] = p.parse_scalar(&is_string);
            if (is_string)
              out.string_fields.back()[k] = str;
            else
              out.number_fields.back()[k] = num;
          }
          p.expect('}');
          if (p.peek() == ',') {
            ++p.i;
            continue;
          }
          p.expect(']');
          break;
        }
      }
    } else {
      throw std::runtime_error("json: unexpected key " + key);
    }
  }
  p.expect('}');
  return out;
}

// ----------------------------------------------------------------- tests --

TEST(JsonRow, EscapesControlCharacters) {
  bench::JsonRow row;
  row.set("s", std::string("line1\nline2\tend\x01\"quoted\\slash"));
  std::string rendered = row.rendered();
  EXPECT_NE(rendered.find("\\n"), std::string::npos);
  EXPECT_NE(rendered.find("\\t"), std::string::npos);
  EXPECT_NE(rendered.find("\\u0001"), std::string::npos);
  EXPECT_NE(rendered.find("\\\""), std::string::npos);
  EXPECT_NE(rendered.find("\\\\"), std::string::npos);
  // No raw control characters may survive.
  for (char c : rendered)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(BenchPrint, FieldsInSetOrderWithoutMachineShape) {
  // The one table printer: a row prints its own fields in the order they
  // were set, and never the machine-shape keys (wherever they sit).
  bench::JsonRow r;
  r.set("hardware_concurrency", 8)
      .set("experiment", "E0")
      .set("n", 42)
      .set("peak_rss_bytes", 1LL << 20)
      .set("ratio", 1.0 / 3.0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  bench::print(r, out);
  std::rewind(out);
  char line[256] = {};
  const bool read = std::fgets(line, sizeof line, out) != nullptr;
  std::fclose(out);
  ASSERT_TRUE(read);
  EXPECT_STREQ(line, "experiment=\"E0\"  n=42  ratio=0.333333\n");
}

TEST(JsonReport, WrittenFileParsesEndToEnd) {
  const std::string nasty = "multi\nline\twith\r\"quotes\" \\ and \x02 ctrl";
  const std::string path = "BENCH_json_contract_tmp.json";
  {
    bench::JsonReport report("json_contract_tmp");
    report.row().set("family", nasty).set("n", 42).set("ratio", 1.5);
    report.row().set("family", "plain").set("n", 7);
    ASSERT_TRUE(report.write());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "report file missing";
  std::stringstream buf;
  buf << in.rdbuf();
  ParsedReport parsed;
  ASSERT_NO_THROW(parsed = parse_report(buf.str())) << buf.str();
  EXPECT_EQ(parsed.bench, "json_contract_tmp");
  EXPECT_GE(parsed.wall_time_ms, 0.0);
  ASSERT_EQ(parsed.string_fields.size(), 2u);
  // The nasty string round-trips exactly through escape + parse.
  EXPECT_EQ(parsed.string_fields[0].at("family"), nasty);
  EXPECT_EQ(parsed.number_fields[0].at("n"), 42.0);
  EXPECT_EQ(parsed.number_fields[0].at("ratio"), 1.5);
  EXPECT_EQ(parsed.string_fields[1].at("family"), "plain");
  std::remove(path.c_str());
}

TEST(JsonReport, WriteFailureIsReportedNotSwallowed) {
  // A report that cannot be written must return false so the harness main
  // can exit nonzero (CI treats a missing BENCH file as a failed run) —
  // the old behavior only warned to stderr and benches exited 0.
  bench::JsonReport broken("no_such_dir/report");  // -> BENCH_no_such_dir/...
  broken.row().set("n", 1);
  EXPECT_FALSE(broken.write());

  bench::JsonReport ok("write_status_tmp");
  ok.row().set("n", 1);
  EXPECT_TRUE(ok.write());
  std::remove("BENCH_write_status_tmp.json");
}

TEST(JsonReport, EveryRowRecordsHardwareContext) {
  // BENCH_*.json trajectories are compared across machines: every row must
  // say what hardware it ran on (hardware_concurrency) and, for run rows,
  // at what thread width (threads).
  const std::string path = "BENCH_hw_context_tmp.json";
  {
    bench::JsonReport report("hw_context_tmp");
    report.row().set("n", 1);  // even a bare metrics row carries the context
    congest::RunReport run;
    run.threads = 3;
    report.row().set("family", "x").set_run(run);
    ASSERT_TRUE(report.write());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  ParsedReport parsed = parse_report(buf.str());
  ASSERT_EQ(parsed.number_fields.size(), 2u);
  for (const auto& fields : parsed.number_fields) {
    ASSERT_TRUE(fields.count("hardware_concurrency"));
    EXPECT_GE(fields.at("hardware_concurrency"), 1.0);
  }
  EXPECT_EQ(parsed.number_fields[1].at("threads"), 3.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mns
