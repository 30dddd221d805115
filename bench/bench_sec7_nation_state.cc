// §7.2 Target analysis: what a nation-state attacker gains from one
// provider's STEK — measured against the simulated Google and Yandex, and
// demonstrated end-to-end with a real capture-then-decrypt.
#include <set>
#include <string>

#include "attack/decrypt.h"
#include "common.h"
#include "scanner/experiments.h"

using namespace tlsharm;
using namespace tlsharm::bench;

int main() {
  World world = BuildWorld("Section 7: nation-state target analysis");
  simnet::Internet& net = *world.net;
  scanner::Prober prober(net, 701);

  // --- Google STEK roll cadence ------------------------------------------------
  const auto google = net.FindDomain("google.com");
  if (!google) {
    std::printf("google.com missing from world\n");
    return 1;
  }
  std::set<scanner::SecretId> steks_48h;
  scanner::SecretId prev = scanner::kNoSecret;
  SimTime first_change = 0;
  for (SimTime t = 0; t <= 48 * kHour; t += kHour) {
    const auto probe = prober.Probe(*google, t);
    if (!probe.observation.ticket_issued) continue;
    if (prev != scanner::kNoSecret && probe.observation.stek_id != prev &&
        first_change == 0) {
      first_change = t;
    }
    prev = probe.observation.stek_id;
    steks_48h.insert(probe.observation.stek_id);
  }
  PrintRow("Google distinct issuing STEKs over 48h", "~4 (14h roll)",
           FormatCount(steks_48h.size()));
  PrintRow("first STEK rollover observed at", "~14h",
           FormatDuration(first_change));

  // Ticket acceptance overlap: resume with a fresh ticket at +20h and +30h.
  scanner::ProbeOptions options;
  options.want_full_result = true;
  const auto initial = prober.Probe(*google, 0, options);
  const bool at_20h = prober.TryResumeTicket(initial.session, *google,
                                             20 * kHour);
  const bool at_30h = prober.TryResumeTicket(initial.session, *google,
                                             30 * kHour);
  PrintRow("Google ticket accepted at +20h (28h window)", "yes",
           at_20h ? "yes" : "no");
  PrintRow("Google ticket accepted at +30h", "no", at_30h ? "yes" : "no");

  // --- Scope of one Google STEK --------------------------------------------------
  const auto stek_groups = scanner::MeasureStekGroups(net, 0, 702, 4,
                                                      2 * kHour);
  std::size_t google_group = 0;
  for (const auto& group : stek_groups.groups) {
    const auto& op = net.GetDomain(group.front()).operator_name;
    if (op.find("google") != std::string::npos ||
        op.find("blogspot") != std::string::npos) {
      google_group = group.size();
      break;
    }
  }
  PrintRow("domains sharing Google's STEK",
           PaperCountAtScale(8973, world.scale), FormatCount(google_group));

  // --- MX records ------------------------------------------------------------------
  std::size_t mx_google = 0, listed = 0;
  for (simnet::DomainId id = 0; id < net.DomainCount(); ++id) {
    if (!net.InTopListOnDay(id, 0)) continue;
    ++listed;
    mx_google += net.MxPointsAtGoogle(id);
  }
  PrintRow("Top-N domains with MX at Google", "9.1%",
           Pct(static_cast<double>(mx_google) / listed, 1));

  // --- Yandex: a static STEK since before the study ----------------------------
  const auto yandex = net.FindDomain("yandex.ru");
  if (yandex) {
    std::set<scanner::SecretId> yandex_steks;
    for (int day = 0; day < world.days; ++day) {
      const auto probe = prober.Probe(*yandex, day * kDay + kHour);
      if (probe.observation.ticket_issued) {
        yandex_steks.insert(probe.observation.stek_id);
      }
    }
    PrintRow("Yandex distinct STEKs over the whole study", "1 (static)",
             FormatCount(yandex_steks.size()));
  }

  // --- End-to-end: steal the Google-pool STEK, decrypt recorded traffic --------
  std::printf("\nDecryption demonstration (passive capture + STEK theft):\n");
  const auto tid = net.EndpointFor(*google, 10 * kHour);
  auto conn = net.Connect(*google, 10 * kHour);
  attack::PassiveCapture capture;
  tls::TappedConnection tapped(*conn, capture);
  crypto::Drbg client_drbg(ToBytes("victim browser"));
  tls::ClientConfig client_config;
  client_config.server_name = "google.com";
  tls::TlsClient victim(client_config);
  const auto hs = victim.Handshake(tapped, 10 * kHour, client_drbg);
  if (hs.ok) {
    tls::RecordChannel channel(hs.keys, tls::Direction::kClientToServer);
    (void)tls::TlsClient::Roundtrip(tapped, hs, channel,
                                    ToBytes("GET /search?q=dissident+news"),
                                    client_drbg);
  }
  const auto parsed = attack::ParseCapture(capture.Log());
  // Hours later: exfiltrate the then-current STEK (still inside the 14h
  // issuing epoch of the captured ticket).
  const tls::Stek stolen = net.SteksOf(tid).StealCurrentKey(12 * kHour);
  const attack::StekDecryptor decryptor(
      net.TerminatorConfigOf(tid).tickets.codec, stolen);
  const auto decrypted = decryptor.Decrypt(parsed);
  PrintRow("captured connection decrypted with stolen STEK", "(attack works)",
           decrypted.ok
               ? "yes"
               : (std::string("no: ") + attack::ToString(decrypted.failure)));
  if (decrypted.ok && !decrypted.client_plaintext.empty()) {
    std::printf("  recovered request: %s\n",
                ToString(decrypted.client_plaintext[0]).c_str());
  }
  return 0;
}
