#include "proto/registry.h"

#include "net/headers.h"

namespace entrace {

const char* to_string(AppProtocol p) {
  switch (p) {
    case AppProtocol::kUnknown: return "unknown";
    case AppProtocol::kHttp: return "HTTP";
    case AppProtocol::kHttps: return "HTTPS";
    case AppProtocol::kSmtp: return "SMTP";
    case AppProtocol::kImap4: return "IMAP4";
    case AppProtocol::kImapS: return "IMAP/S";
    case AppProtocol::kPop3: return "POP3";
    case AppProtocol::kPopS: return "POP/S";
    case AppProtocol::kLdap: return "LDAP";
    case AppProtocol::kFtp: return "FTP";
    case AppProtocol::kFtpData: return "FTP-data";
    case AppProtocol::kHpss: return "HPSS";
    case AppProtocol::kSsh: return "SSH";
    case AppProtocol::kTelnet: return "telnet";
    case AppProtocol::kRlogin: return "rlogin";
    case AppProtocol::kX11: return "X11";
    case AppProtocol::kDns: return "DNS";
    case AppProtocol::kNetbiosNs: return "Netbios-NS";
    case AppProtocol::kSrvLoc: return "SrvLoc";
    case AppProtocol::kSunRpcPortmap: return "Portmapper";
    case AppProtocol::kNfs: return "NFS";
    case AppProtocol::kNcp: return "NCP";
    case AppProtocol::kDhcp: return "DHCP";
    case AppProtocol::kIdent: return "ident";
    case AppProtocol::kNtp: return "NTP";
    case AppProtocol::kSnmp: return "SNMP";
    case AppProtocol::kNavPing: return "NAV-ping";
    case AppProtocol::kSap: return "SAP";
    case AppProtocol::kNetInfoLocal: return "NetInfo-local";
    case AppProtocol::kRtsp: return "RTSP";
    case AppProtocol::kIpVideo: return "IPVideo";
    case AppProtocol::kRealStream: return "RealStream";
    case AppProtocol::kCifs: return "CIFS/SMB";
    case AppProtocol::kDceRpc: return "DCE/RPC";
    case AppProtocol::kNetbiosSsn: return "Netbios-SSN";
    case AppProtocol::kNetbiosDgm: return "Netbios-DGM";
    case AppProtocol::kEndpointMapper: return "EPM";
    case AppProtocol::kVeritasCtrl: return "Veritas-ctrl";
    case AppProtocol::kVeritasData: return "Veritas-data";
    case AppProtocol::kDantz: return "Dantz";
    case AppProtocol::kConnectedBackup: return "Connected-backup";
    case AppProtocol::kSteltor: return "Steltor";
    case AppProtocol::kMetaSys: return "MetaSys";
    case AppProtocol::kLpd: return "LPD";
    case AppProtocol::kIpp: return "IPP";
    case AppProtocol::kOracleSql: return "Oracle-SQL";
    case AppProtocol::kMsSql: return "MS-SQL";
  }
  return "?";
}

const char* to_string(AppCategory c) {
  switch (c) {
    case AppCategory::kWeb: return "web";
    case AppCategory::kEmail: return "email";
    case AppCategory::kNetFile: return "net-file";
    case AppCategory::kBackup: return "backup";
    case AppCategory::kBulk: return "bulk";
    case AppCategory::kName: return "name";
    case AppCategory::kInteractive: return "interactive";
    case AppCategory::kWindows: return "windows";
    case AppCategory::kStreaming: return "streaming";
    case AppCategory::kNetMgnt: return "net-mgnt";
    case AppCategory::kMisc: return "misc";
    case AppCategory::kOtherTcp: return "other-tcp";
    case AppCategory::kOtherUdp: return "other-udp";
  }
  return "?";
}

AppCategory category_of(AppProtocol p) {
  switch (p) {
    case AppProtocol::kHttp:
    case AppProtocol::kHttps:
      return AppCategory::kWeb;
    case AppProtocol::kSmtp:
    case AppProtocol::kImap4:
    case AppProtocol::kImapS:
    case AppProtocol::kPop3:
    case AppProtocol::kPopS:
    case AppProtocol::kLdap:
      return AppCategory::kEmail;
    case AppProtocol::kFtp:
    case AppProtocol::kFtpData:
    case AppProtocol::kHpss:
      return AppCategory::kBulk;
    case AppProtocol::kSsh:
    case AppProtocol::kTelnet:
    case AppProtocol::kRlogin:
    case AppProtocol::kX11:
      return AppCategory::kInteractive;
    case AppProtocol::kDns:
    case AppProtocol::kNetbiosNs:
    case AppProtocol::kSrvLoc:
    case AppProtocol::kSunRpcPortmap:
      return AppCategory::kName;
    case AppProtocol::kNfs:
    case AppProtocol::kNcp:
      return AppCategory::kNetFile;
    case AppProtocol::kDhcp:
    case AppProtocol::kIdent:
    case AppProtocol::kNtp:
    case AppProtocol::kSnmp:
    case AppProtocol::kNavPing:
    case AppProtocol::kSap:
    case AppProtocol::kNetInfoLocal:
      return AppCategory::kNetMgnt;
    case AppProtocol::kRtsp:
    case AppProtocol::kIpVideo:
    case AppProtocol::kRealStream:
      return AppCategory::kStreaming;
    case AppProtocol::kCifs:
    case AppProtocol::kDceRpc:
    case AppProtocol::kNetbiosSsn:
    case AppProtocol::kNetbiosDgm:
    case AppProtocol::kEndpointMapper:
      return AppCategory::kWindows;
    case AppProtocol::kVeritasCtrl:
    case AppProtocol::kVeritasData:
    case AppProtocol::kDantz:
    case AppProtocol::kConnectedBackup:
      return AppCategory::kBackup;
    case AppProtocol::kSteltor:
    case AppProtocol::kMetaSys:
    case AppProtocol::kLpd:
    case AppProtocol::kIpp:
    case AppProtocol::kOracleSql:
    case AppProtocol::kMsSql:
      return AppCategory::kMisc;
    case AppProtocol::kUnknown:
      break;
  }
  return AppCategory::kOtherTcp;  // caller refines unknown by transport
}

namespace {

using PortTable = std::map<std::pair<std::uint8_t, std::uint16_t>, AppProtocol>;

// The well-known (proto, port) table.  It is the same in every registry,
// so it is built once rather than per registry: every TraceShard carries a
// registry, and the windowed engine makes one per trace per window.
const PortTable& well_known_ports() {
  static const PortTable table = [] {
    PortTable t;
    auto tcp = [&t](std::uint16_t port, AppProtocol p) { t[{ipproto::kTcp, port}] = p; };
    auto udp = [&t](std::uint16_t port, AppProtocol p) { t[{ipproto::kUdp, port}] = p; };

    tcp(ports::kHttp, AppProtocol::kHttp);
    tcp(ports::kHttpAlt, AppProtocol::kHttp);
    tcp(ports::kHttps, AppProtocol::kHttps);
    tcp(ports::kSmtp, AppProtocol::kSmtp);
    tcp(ports::kImap4, AppProtocol::kImap4);
    tcp(ports::kImapS, AppProtocol::kImapS);
    tcp(ports::kPop3, AppProtocol::kPop3);
    tcp(ports::kPopS, AppProtocol::kPopS);
    tcp(ports::kLdap, AppProtocol::kLdap);
    udp(ports::kLdap, AppProtocol::kLdap);
    tcp(ports::kFtp, AppProtocol::kFtp);
    tcp(ports::kFtpData, AppProtocol::kFtpData);
    tcp(ports::kHpss, AppProtocol::kHpss);
    tcp(ports::kSsh, AppProtocol::kSsh);
    tcp(ports::kTelnet, AppProtocol::kTelnet);
    tcp(ports::kRlogin, AppProtocol::kRlogin);
    tcp(ports::kX11, AppProtocol::kX11);
    tcp(ports::kDns, AppProtocol::kDns);
    udp(ports::kDns, AppProtocol::kDns);
    udp(ports::kNetbiosNs, AppProtocol::kNetbiosNs);
    udp(ports::kNetbiosDgm, AppProtocol::kNetbiosDgm);
    tcp(ports::kNetbiosSsn, AppProtocol::kNetbiosSsn);
    tcp(ports::kSrvLoc, AppProtocol::kSrvLoc);
    udp(ports::kSrvLoc, AppProtocol::kSrvLoc);
    tcp(ports::kPortmap, AppProtocol::kSunRpcPortmap);
    udp(ports::kPortmap, AppProtocol::kSunRpcPortmap);
    tcp(ports::kNfs, AppProtocol::kNfs);
    udp(ports::kNfs, AppProtocol::kNfs);
    tcp(ports::kNcp, AppProtocol::kNcp);
    udp(ports::kDhcpServer, AppProtocol::kDhcp);
    udp(ports::kDhcpClient, AppProtocol::kDhcp);
    tcp(ports::kIdent, AppProtocol::kIdent);
    udp(ports::kNtp, AppProtocol::kNtp);
    udp(ports::kSnmp, AppProtocol::kSnmp);
    udp(ports::kNavPing, AppProtocol::kNavPing);
    udp(ports::kSap, AppProtocol::kSap);
    udp(ports::kNetInfoLocal, AppProtocol::kNetInfoLocal);
    tcp(ports::kNetInfoLocal, AppProtocol::kNetInfoLocal);
    tcp(ports::kRtsp, AppProtocol::kRtsp);
    udp(ports::kIpVideo, AppProtocol::kIpVideo);
    tcp(ports::kRealStream, AppProtocol::kRealStream);
    udp(ports::kRealStream, AppProtocol::kRealStream);
    tcp(ports::kCifs, AppProtocol::kCifs);
    tcp(ports::kEpm, AppProtocol::kEndpointMapper);
    udp(ports::kEpm, AppProtocol::kEndpointMapper);
    tcp(ports::kVeritasCtrl, AppProtocol::kVeritasCtrl);
    tcp(ports::kVeritasData, AppProtocol::kVeritasData);
    tcp(ports::kDantz, AppProtocol::kDantz);
    udp(ports::kDantz, AppProtocol::kDantz);
    tcp(ports::kConnected, AppProtocol::kConnectedBackup);
    tcp(ports::kSteltor, AppProtocol::kSteltor);
    tcp(ports::kMetaSys, AppProtocol::kMetaSys);
    udp(ports::kMetaSys, AppProtocol::kMetaSys);
    tcp(ports::kLpd, AppProtocol::kLpd);
    tcp(ports::kIpp, AppProtocol::kIpp);
    tcp(ports::kOracleSql, AppProtocol::kOracleSql);
    tcp(ports::kMsSql, AppProtocol::kMsSql);
    udp(ports::kMsSql, AppProtocol::kMsSql);
    return t;
  }();
  return table;
}

}  // namespace

AppProtocol AppRegistry::lookup(std::uint8_t proto, std::uint16_t port) const {
  const PortTable& ports = well_known_ports();
  const auto it = ports.find({proto, port});
  return it == ports.end() ? AppProtocol::kUnknown : it->second;
}

AppProtocol AppRegistry::identify(const Connection& conn) const {
  const std::uint8_t proto = conn.key.proto;
  if (proto != ipproto::kTcp && proto != ipproto::kUdp) return AppProtocol::kUnknown;
  AppProtocol p = lookup(proto, conn.key.dst_port);
  if (p != AppProtocol::kUnknown) return p;
  p = lookup(proto, conn.key.src_port);
  if (p != AppProtocol::kUnknown) return p;
  if (proto == ipproto::kTcp) {
    if (is_dcerpc_endpoint(conn.key.dst, conn.key.dst_port) ||
        is_dcerpc_endpoint(conn.key.src, conn.key.src_port))
      return AppProtocol::kDceRpc;
  }
  return AppProtocol::kUnknown;
}

void AppRegistry::register_dcerpc_endpoint(Ipv4Address server, std::uint16_t port) {
  dcerpc_endpoints_[{server.value(), port}] = true;
}

bool AppRegistry::is_dcerpc_endpoint(Ipv4Address server, std::uint16_t port) const {
  return dcerpc_endpoints_.count({server.value(), port}) > 0;
}

void AppRegistry::merge_dynamic_endpoints(const AppRegistry& other) {
  dcerpc_endpoints_.insert(other.dcerpc_endpoints_.begin(), other.dcerpc_endpoints_.end());
}

}  // namespace entrace
