#include "common/options.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace fw {

OptionSet& OptionSet::add(Option o) {
  if (find(o.name) != nullptr) {
    throw std::logic_error("OptionSet: duplicate option " + o.name);
  }
  opts_.push_back(std::move(o));
  return *this;
}

const OptionSet::Option* OptionSet::find(const std::string& name) const {
  for (const Option& o : opts_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

OptionSet& OptionSet::flag(const std::string& name, bool* target,
                           const std::string& help) {
  return add({name, "", help, false, [target](const std::string&) { *target = true; }});
}

OptionSet& OptionSet::flag(const std::string& name, const std::string& help,
                           std::function<void()> fn) {
  return add({name, "", help, false,
              [fn = std::move(fn)](const std::string&) { fn(); }});
}

OptionSet& OptionSet::opt(const std::string& name, std::string* target,
                          const std::string& metavar, const std::string& help) {
  return add({name, metavar, help, true,
              [target](const std::string& v) { *target = v; }});
}

OptionSet& OptionSet::opt(const std::string& name, std::uint64_t* target,
                          const std::string& metavar, const std::string& help) {
  return add({name, metavar, help, true,
              [name, target](const std::string& v) { *target = to_u64(name, v); }});
}

OptionSet& OptionSet::opt(const std::string& name, std::uint32_t* target,
                          const std::string& metavar, const std::string& help) {
  return add({name, metavar, help, true, [name, target](const std::string& v) {
                const std::uint64_t r = to_u64(name, v);
                if (r > 0xFFFFFFFFull) {
                  throw std::invalid_argument(name + ": value out of range: " + v);
                }
                *target = static_cast<std::uint32_t>(r);
              }});
}

OptionSet& OptionSet::opt(const std::string& name, double* target,
                          const std::string& metavar, const std::string& help) {
  return add({name, metavar, help, true,
              [name, target](const std::string& v) { *target = to_f64(name, v); }});
}

OptionSet& OptionSet::opt(const std::string& name, const std::string& metavar,
                          const std::string& help, Handler fn) {
  return add({name, metavar, help, true, std::move(fn)});
}

std::uint64_t OptionSet::to_u64(const std::string& name, const std::string& value) {
  try {
    // std::stoull accepts a leading '-' and wraps modulo 2^64 ("-5" parses
    // as 18446744073709551611); these are unsigned options, so any sign —
    // anywhere stoull would tolerate it, including after whitespace — is an
    // error, not a wrap.
    if (value.find('-') != std::string::npos) throw std::invalid_argument(value);
    std::size_t pos = 0;
    const std::uint64_t r = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return r;
  } catch (const std::exception&) {
    throw std::invalid_argument(name + ": expected an integer, got '" + value + "'");
  }
}

double OptionSet::to_f64(const std::string& name, const std::string& value) {
  try {
    // std::stod accepts "nan" and "inf", and NaN slips past every `<=`/`>=`
    // range check downstream, so non-finite values are errors here.
    std::size_t pos = 0;
    const double r = std::stod(value, &pos);
    if (pos != value.size() || !std::isfinite(r)) throw std::invalid_argument(value);
    return r;
  } catch (const std::exception&) {
    throw std::invalid_argument(name + ": expected a finite number, got '" + value + "'");
  }
}

void OptionSet::parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool have_inline = false;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      have_inline = true;
    }
    const Option* o = find(arg);
    if (o == nullptr) throw std::invalid_argument("unknown option " + arg);
    if (!o->takes_value) {
      if (have_inline) {
        throw std::invalid_argument(arg + " does not take a value");
      }
      o->handler("");
      continue;
    }
    if (have_inline) {
      o->handler(inline_value);
    } else {
      if (++i >= argc) throw std::invalid_argument(arg + " needs a value");
      o->handler(argv[i]);
    }
  }
}

void OptionSet::parse_or_exit(int argc, const char* const* argv,
                              const std::string& summary) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(std::cout, argv[0], summary);
      std::exit(0);
    }
  }
  try {
    parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": error: " << e.what() << " (try --help)\n";
    std::exit(2);
  }
}

void OptionSet::print_help(std::ostream& os, const std::string& prog,
                           const std::string& summary) const {
  os << "usage: " << prog << " [options]\n";
  if (!summary.empty()) os << summary << "\n";
  os << "\noptions:\n";
  std::size_t width = 0;
  for (const Option& o : opts_) {
    std::size_t w = o.name.size();
    if (!o.metavar.empty()) w += 1 + o.metavar.size();
    width = std::max(width, w);
  }
  for (const Option& o : opts_) {
    std::string left = o.name;
    if (!o.metavar.empty()) left += " " + o.metavar;
    os << "  " << left << std::string(width - left.size() + 2, ' ');
    // Indent continuation lines of multi-line help under the first line.
    const std::string indent(2 + width + 2, ' ');
    std::size_t start = 0;
    bool first = true;
    while (start <= o.help.size()) {
      const std::size_t nl = o.help.find('\n', start);
      const std::string line = o.help.substr(
          start, nl == std::string::npos ? std::string::npos : nl - start);
      if (!first) os << indent;
      os << line << "\n";
      first = false;
      if (nl == std::string::npos) break;
      start = nl + 1;
    }
  }
}

}  // namespace fw
