// Web traffic (§5.1.1): user browsing, the three automated-client
// activities of Table 6 (an HTTP scanner, internal Google crawler
// appliances, Novell iFolder), and HTTPS — including the curious
// many-short-connections SSL host pairs the paper observed.
#include <string>

#include "proto/registry.h"
#include "synth/apps.h"
#include "util/strings.h"

namespace entrace {
namespace {

std::vector<std::uint8_t> http_request(const std::string& method, const std::string& uri,
                                       const std::string& host, const std::string& ua,
                                       bool conditional, std::size_t body_len) {
  std::string msg = method + " " + uri + " HTTP/1.1\r\n";
  msg += "Host: " + host + "\r\n";
  msg += "User-Agent: " + ua + "\r\n";
  if (conditional) msg += "If-Modified-Since: Mon, 03 Jan 2005 10:00:00 GMT\r\n";
  if (body_len > 0) msg += "Content-Length: " + std::to_string(body_len) + "\r\n";
  msg += "Accept: */*\r\n\r\n";
  std::vector<std::uint8_t> out(msg.begin(), msg.end());
  const auto body = filler_span(body_len);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::uint8_t> http_response(int status, const std::string& reason,
                                        const std::string& ctype, std::size_t body_len) {
  std::string msg = "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  msg += "Server: Apache/1.3.33 (Unix)\r\n";
  if (!ctype.empty()) msg += "Content-Type: " + ctype + "\r\n";
  msg += "Content-Length: " + std::to_string(body_len) + "\r\n\r\n";
  std::vector<std::uint8_t> out(msg.begin(), msg.end());
  const auto body = filler_span(body_len);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

struct ObjectProfile {
  std::string ctype;
  std::size_t size;
};

// Content type and size mix tuned to Table 7 / Figure 4: images dominate
// request counts, application bytes dominate volume.
ObjectProfile sample_object(Rng& rng) {
  switch (rng.weighted({0.22, 0.70, 0.05, 0.03})) {
    case 0:
      return {"text/html", static_cast<std::size_t>(rng.lognormal(8.0, 1.2))};
    case 1:
      return {rng.bernoulli(0.6) ? "image/gif" : "image/jpeg",
              static_cast<std::size_t>(rng.lognormal(7.5, 1.3))};
    case 2: {
      const char* sub = nullptr;
      switch (rng.weighted({0.4, 0.25, 0.2, 0.15})) {
        case 0: sub = "application/javascript"; break;
        case 1: sub = "application/octet-stream"; break;
        case 2: sub = "application/zip"; break;
        default: sub = "application/pdf"; break;
      }
      return {sub, static_cast<std::size_t>(rng.pareto(1.15, 3000, 4.0e7))};
    }
    default:
      return {rng.bernoulli(0.5) ? "audio/mpeg" : "video/mpeg",
              static_cast<std::size_t>(rng.pareto(1.3, 20000, 1.0e7))};
  }
}

void browse_session(GenContext& ctx, double start, const HostRef& client, const HostRef& server,
                    bool wan, const std::string& ua) {
  const WebKnobs& web = ctx.spec().web;
  Rng& rng = ctx.rng();
  TcpOptions opt = wan ? ctx.wan_tcp() : ctx.lan_tcp();
  TcpFlowBuilder tcp(ctx.sink(), rng, client, server, ctx.ephemeral_port(), ports::kHttp, start,
                     opt);

  // Connection failures: internal HTTP fails notably more often than WAN
  // (72-92% vs 95-99% success), mostly via server RSTs.
  const double reject = wan ? web.reject_rate_wan : web.reject_rate_ent;
  if (rng.bernoulli(reject)) {
    if (rng.bernoulli(0.8)) {
      tcp.connect_rejected();
    } else {
      tcp.connect_unanswered(2);
    }
    return;
  }
  tcp.connect();

  // Half of web sessions fetch a single object; 10-20% fetch 10+.
  std::size_t objects = 1;
  if (rng.bernoulli(0.5)) {
    objects = 1 + static_cast<std::size_t>(rng.pareto(1.0, 1.0, 40.0));
  }
  const std::string host = wan ? "www" + std::to_string(rng.uniform_int(1, 999)) + ".example.com"
                               : "intranet.lbl.example";
  const double cond_p = wan ? ctx.spec().web.cond_get_wan : ctx.spec().web.cond_get_ent;
  for (std::size_t i = 0; i < objects && tcp.now() < ctx.t1(); ++i) {
    const bool conditional = rng.bernoulli(cond_p);
    const std::string uri = "/site/page" + std::to_string(rng.uniform_int(0, 5000)) +
                            (i == 0 ? ".html" : ".obj");
    tcp.client_message(http_request("GET", uri, host, ua, conditional, 0));
    tcp.advance(opt.rtt / 2);
    if (conditional && rng.bernoulli(0.93)) {
      tcp.server_message(http_response(304, "Not Modified", "", 0));
    } else if (rng.bernoulli(0.02)) {
      tcp.server_message(http_response(404, "Not Found", "text/html", 300));
    } else {
      const ObjectProfile obj = sample_object(rng);
      tcp.server_message(http_response(200, "OK", obj.ctype, obj.size));
    }
    tcp.advance(rng.exponential(1.5));  // user think time between objects
  }
  tcp.close();
}

void scanner_session(GenContext& ctx, double start) {
  // A web vulnerability scanner: many servers probed in random order
  // (so the §3 address-order heuristic does not fire), mostly 404 replies,
  // near-zero bytes (Table 6: scan1 is up to 45% of requests, ~1% of bytes).
  Rng& rng = ctx.rng();
  const HostRef scanner = EnterpriseModel::ref(ctx.model().subnet(13).host(2));
  const int probes = static_cast<int>(rng.uniform(12, 30));
  double t = start;
  for (int i = 0; i < probes && t < ctx.t1(); ++i) {
    // Target a host in the monitored subnet so the tap sees it.
    const HostRef target = ctx.model().host(ctx.subnet(), static_cast<std::uint32_t>(
                                                              rng.uniform_int(0, 150)));
    TcpFlowBuilder tcp(ctx.sink(), rng, scanner, target, ctx.ephemeral_port(), ports::kHttp, t,
                       ctx.lan_tcp());
    if (rng.bernoulli(0.35)) {
      tcp.connect_rejected();
    } else {
      tcp.connect();
      tcp.client_message(http_request("GET", "/cgi-bin/test" + std::to_string(i), "victim",
                                      "SiteScanner/1.0", false, 0));
      tcp.advance(0.001);
      tcp.server_message(http_response(404, "Not Found", "text/html", 180));
      tcp.close();
    }
    t += rng.exponential(0.3);
  }
}

void inbound_web_session(GenContext& ctx, double start) {
  // WAN clients fetching from the site's public web servers.
  const HostRef client = ctx.external();
  const HostRef server = EnterpriseModel::ref(ctx.model().subnet(ctx.subnet()).host(5));
  browse_session(ctx, start, client, server, true, "Mozilla/4.0 (compatible; Visitor)");
}

void crawler_session(GenContext& ctx, double start, bool v1) {
  // Internal Google search-appliance crawl: huge fan-out across internal
  // servers and the dominant share of internal HTTP bytes (Table 6).
  Rng& rng = ctx.rng();
  const HostRef bot = EnterpriseModel::ref(ctx.model().subnet(14).host(v1 ? 2 : 3));
  const std::string ua = v1 ? "Googlebot/1.0 (gsa)" : "Googlebot/2.1 (gsa)";
  // Crawl a server in the monitored subnet.
  const HostRef server = EnterpriseModel::ref(ctx.model().subnet(ctx.subnet()).host(5));
  TcpFlowBuilder tcp(ctx.sink(), rng, bot, server, ctx.ephemeral_port(), ports::kHttp, start,
                     ctx.lan_tcp());
  tcp.connect();
  const int pages = static_cast<int>(rng.uniform(15, 50));
  for (int i = 0; i < pages && tcp.now() < ctx.t1(); ++i) {
    tcp.client_message(
        http_request("GET", "/doc/item" + std::to_string(i), "crawl-target", ua, false, 0));
    tcp.advance(0.002);
    // Crawlers pull everything, including the large application objects.
    const std::size_t size = static_cast<std::size_t>(rng.pareto(1.1, 5000, 8.0e6));
    tcp.server_message(http_response(200, "OK",
                                     rng.bernoulli(0.7) ? "text/html" : "application/pdf",
                                     size));
    tcp.advance(rng.exponential(0.05));
  }
  tcp.close();
}

void ifolder_session(GenContext& ctx, double start) {
  // Novell iFolder sync over HTTP: POST-heavy, replies uniformly 32,780
  // bytes (the paper's exact observation).
  Rng& rng = ctx.rng();
  const HostRef client = ctx.local_host();
  const HostRef server = EnterpriseModel::ref(ctx.model().subnet(14).host(4));
  if (ctx.model().subnet_of(client.ip) == ctx.model().subnet_of(server.ip)) return;
  TcpFlowBuilder tcp(ctx.sink(), rng, client, server, ctx.ephemeral_port(), ports::kHttp, start,
                     ctx.lan_tcp());
  tcp.connect();
  const int ops = static_cast<int>(rng.uniform(3, 12));
  for (int i = 0; i < ops && tcp.now() < ctx.t1(); ++i) {
    const bool post = rng.bernoulli(0.6);
    tcp.client_message(http_request(post ? "POST" : "GET", "/ifolder/sync", "ifolder",
                                    "Novell iFolder/2.0", false,
                                    post ? 1200 + rng.uniform_int(0, 4000) : 0));
    tcp.advance(0.001);
    tcp.server_message(http_response(200, "OK", "application/octet-stream", 32780));
    tcp.advance(rng.exponential(2.0));
  }
  tcp.close();
}

void https_sessions(GenContext& ctx) {
  Rng& rng = ctx.rng();
  const WebKnobs& web = ctx.spec().web;
  for (double t : ctx.arrivals(web.https_sessions)) {
    const HostRef client = ctx.local_host();
    const bool wan = rng.bernoulli(0.5);
    const HostRef server = wan ? ctx.external() : ctx.other_internal();
    TcpFlowBuilder tcp(ctx.sink(), rng, client, server, ctx.ephemeral_port(), ports::kHttps, t,
                       wan ? ctx.wan_tcp() : ctx.lan_tcp());
    tcp.connect();
    // TLS handshake + a pair of application records.
    tcp.client_message(filler_span(180));
    tcp.server_message(filler_span(1500 + rng.uniform_int(0, 2500)));
    tcp.client_message(filler_span(350 + rng.uniform_int(0, 600)));
    tcp.server_message(filler_span(600 + rng.uniform_int(0, 20000)));
    tcp.close();
  }
  // The strange pairs: hundreds of short SSL connections between one host
  // pair within the hour (795 in D4's example).
  if (rng.bernoulli(web.https_retry_pairs)) {
    const HostRef client = ctx.local_host();
    const HostRef server = ctx.other_internal();
    const int conns = static_cast<int>(rng.uniform(300, 900) * ctx.spec().scale * 20);
    double t = ctx.t0() + rng.uniform(0, 60);
    for (int i = 0; i < conns && t < ctx.t1(); ++i) {
      TcpFlowBuilder tcp(ctx.sink(), rng, client, server, ctx.ephemeral_port(), ports::kHttps,
                         t, ctx.lan_tcp());
      tcp.connect();
      tcp.client_message(filler_span(180));
      tcp.server_message(filler_span(1400));
      tcp.client_message(filler_span(120));
      tcp.server_message(filler_span(130));
      tcp.close();
      t += rng.exponential(4.0);
    }
  }
}

}  // namespace

void gen_web(GenContext& ctx) {
  Rng& rng = ctx.rng();
  const WebKnobs& web = ctx.spec().web;

  // Browsing is concentrated on the subnet's active users: Figure 3's
  // fan-out comes from individual clients visiting many servers, so the
  // session count per active client must survive scaling.
  const auto sessions = ctx.arrivals(web.browse_sessions);
  const std::size_t active_clients =
      std::max<std::size_t>(2, sessions.size() / 10);
  std::vector<HostRef> clients;
  clients.reserve(active_clients);
  for (std::size_t i = 0; i < active_clients; ++i) clients.push_back(ctx.local_host());

  for (double t : sessions) {
    const HostRef client = clients[rng.zipf(clients.size(), 0.8)];
    const bool wan = rng.bernoulli(web.wan_server_ratio);
    HostRef server;
    if (wan) {
      // Zipf-popular external server pool: repeat visits to popular sites,
      // long tail of one-off servers.
      server = ctx.model().external_host(1000 + rng.zipf(4000, 0.9));
    } else {
      server = ctx.model().internal_web_server(static_cast<std::uint32_t>(rng.zipf(30, 1.1)));
      if (ctx.model().subnet_of(server.ip) == ctx.subnet()) server = ctx.model().web_proxy();
    }
    browse_session(ctx, t, client, server, wan, "Mozilla/4.0 (compatible; EnterpriseUser)");
  }

  // Automated clients and inbound visitors run at absolute magnitude.
  for (double t : ctx.arrivals_abs(web.scanner_sessions)) scanner_session(ctx, t);
  for (double t : ctx.arrivals_abs(web.google_sessions)) {
    crawler_session(ctx, t, rng.bernoulli(web.google1_share));
  }
  for (double t : ctx.arrivals_abs(web.ifolder_sessions)) ifolder_session(ctx, t);
  for (double t : ctx.arrivals(web.inbound_sessions)) inbound_web_session(ctx, t);
  https_sessions(ctx);
}

}  // namespace entrace
