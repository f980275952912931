// parse_server_demo — drive the batched parse service like a traffic
// replay: generate an English workload, submit it in batches across a
// thread pool, and print the aggregate service report.
//
//   parse_server_demo [--threads N] [--sentences N] [--batch N]
//                     [--lo LEN] [--hi LEN]
//                     [--backend serial|pram|maspar|mesh]
//                     [--deadline-ms MS] [--quiet]
//
// Exit status: 0 if every request completed (timeouts count as
// completed — they are the graceful path), 1 on a lost request.
#include <iostream>
#include <string>

#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "parsec/backend.h"
#include "serve/parse_service.h"
#include "serve/report.h"

namespace {

int usage() {
  std::cerr << "usage: parse_server_demo [--threads N] [--sentences N]"
               " [--batch N] [--lo LEN] [--hi LEN] [--backend NAME]"
               " [--deadline-ms MS] [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parsec;
  int threads = 4, sentences = 64, lo = 4, hi = 10;
  std::size_t batch = 16;
  engine::Backend backend = engine::Backend::Serial;
  double deadline_ms = 0.0;
  bool quiet = false;

  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--threads")
      threads = std::stoi(next());
    else if (arg == "--sentences")
      sentences = std::stoi(next());
    else if (arg == "--batch")
      batch = static_cast<std::size_t>(std::stoul(next()));
    else if (arg == "--lo")
      lo = std::stoi(next());
    else if (arg == "--hi")
      hi = std::stoi(next());
    else if (arg == "--backend") {
      auto b = engine::backend_from_name(next());
      if (!b) return usage();
      backend = *b;
    } else if (arg == "--deadline-ms")
      deadline_ms = std::stod(next());
    else if (arg == "--quiet")
      quiet = true;
    else
      return usage();
  }
  } catch (const std::exception&) {  // non-numeric value for a numeric flag
    return usage();
  }

  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 42);

  serve::ParseService::Options opt;
  opt.threads = threads;
  opt.queue_capacity = std::max<std::size_t>(batch * 2, 32);
  serve::ParseService service(bundle.grammar, opt);

  std::cout << "parse_server_demo: " << sentences << " sentences (n=" << lo
            << ".." << hi << "), batches of " << batch << " on "
            << service.threads() << " threads, backend "
            << engine::to_string(backend) << "\n";

  int submitted = 0, completed = 0, accepted = 0, timeouts = 0;
  while (submitted < sentences) {
    std::vector<serve::ParseRequest> reqs;
    const int this_batch =
        std::min<int>(static_cast<int>(batch), sentences - submitted);
    for (int i = 0; i < this_batch; ++i) {
      serve::ParseRequest r;
      r.sentence = gen.generate_sentence(lo + (submitted + i) % (hi - lo + 1));
      r.backend = backend;
      if (deadline_ms > 0)
        r.deadline = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
      reqs.push_back(std::move(r));
    }
    auto responses = service.parse_batch(std::move(reqs));
    for (const auto& resp : responses) {
      ++completed;
      if (resp.accepted) ++accepted;
      if (resp.status == serve::RequestStatus::Timeout) ++timeouts;
    }
    submitted += this_batch;
    if (!quiet)
      std::cout << "batch done: " << completed << "/" << sentences
                << " completed, " << accepted << " accepted, " << timeouts
                << " timeouts\n";
  }

  std::cout << "\n" << serve::render_service_stats(service.stats());
  if (completed != sentences) {
    std::cout << "FAIL: lost requests\n";
    return 1;
  }
  // The generator emits grammatical sentences: everything that wasn't
  // cut off by a deadline must be accepted.
  if (accepted + timeouts != completed) {
    std::cout << "FAIL: unexpected rejections\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
