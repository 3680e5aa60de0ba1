// Reenacts the ReSync message sequence chart of Figure 3 (§5.2) and prints
// the PDUs exchanged between the replica (client) and the master (server).
//
// Entries E1..E5, replicated search S = (dept=42) over o=xyz:
//   S, (poll, null)      ->  E1 add, E2 add, E3 add; cookie
//   [E4 added; E1 modified out; E2 deleted; E3 modified in-place]
//   S, (poll, cookie)    ->  E4 add; E1 delete; E2 delete; E3 mod; cookie
//   [E3 renamed to E5]
//   S, (persist, cookie) ->  E3 delete, E5 add; connection stays open
//   [E5 modified: pushed as a notification]
//   abandon

#include <cstdio>

#include "resync/replica_client.h"
#include "server/directory_server.h"

using namespace fbdr;
using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;

namespace {

void print_response(const char* request, const resync::ReSyncResponse& response) {
  std::printf("client -> master: %s\n", request);
  for (const resync::EntryPdu& pdu : response.pdus) {
    std::printf("  master -> client: %s\n", pdu.to_string().c_str());
  }
  if (!response.cookie.empty()) {
    std::printf("  master -> client: cookie=%s%s\n", response.cookie.c_str(),
                response.persistent ? " (connection held open)" : "");
  }
}

}  // namespace

int main() {
  auto master = std::make_shared<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  auto person = [&](const char* cn, const char* dept) {
    master->load(make_entry(std::string("cn=") + cn + ",o=xyz",
                            {{"objectclass", "person"}, {"dept", dept}}));
  };
  person("E1", "42");
  person("E2", "42");
  person("E3", "42");

  resync::ReSyncMaster resync(*master);
  resync.set_notification_sink(
      [](std::uint64_t, const resync::ReSyncResponse& push) {
        for (const resync::EntryPdu& pdu : push.pdus) {
          std::printf("  master ~> client (notification, cookie %s): %s\n",
                      push.cookie.c_str(), pdu.to_string().c_str());
        }
      });

  const Query s = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");
  std::printf("S = %s\n\n", s.to_string().c_str());

  // --- initial poll ---
  const auto first = resync.handle(s, {resync::Mode::Poll, ""});
  print_response("S, (poll, null)", first);
  const std::string cookie = first.cookie;

  // --- interval 1: A, M(out), D, M(in) ---
  std::printf("\n[master: add E4; modify E1 out of content; delete E2; "
              "modify E3]\n\n");
  master->add(make_entry("cn=E4,o=xyz",
                         {{"objectclass", "person"}, {"dept", "42"}}));
  master->modify(Dn::parse("cn=E1,o=xyz"),
                 {{server::Modification::Op::Replace, "dept", {"7"}}});
  master->remove(Dn::parse("cn=E2,o=xyz"));
  master->modify(Dn::parse("cn=E3,o=xyz"),
                 {{server::Modification::Op::AddValues, "mail", {"e3@xyz.com"}}});
  resync.pump();

  const auto second = resync.handle(s, {resync::Mode::Poll, cookie});
  print_response("S, (poll, cookie)", second);

  // --- interval 2: R (rename E3 -> E5, stays in content) ---
  std::printf("\n[master: rename E3 -> E5]\n\n");
  master->modify_dn(Dn::parse("cn=E3,o=xyz"), Dn::parse("cn=E5,o=xyz"));
  resync.pump();

  // Each poll returned a fresh resumption cookie (Fig. 3's cookie1).
  const auto third = resync.handle(s, {resync::Mode::Persist, second.cookie});
  print_response("S, (persist, cookie1)", third);
  // The connection that carried the request now carries the pushes.
  resync.bind(third.cookie, 1);

  // --- a pushed notification on the persistent connection ---
  std::printf("\n[master: modify E5]\n\n");
  master->modify(Dn::parse("cn=E5,o=xyz"),
                 {{server::Modification::Op::Replace, "mail", {"e5@xyz.com"}}});
  resync.pump();

  std::printf("\nclient -> master: abandon\n");
  resync.abandon(cookie);
  std::printf("sessions remaining: %zu\n", resync.session_count());
  return 0;
}
