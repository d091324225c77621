#include "service/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <stdexcept>
#include <sys/socket.h>

namespace tlbpf
{

namespace
{

[[noreturn]] void
serverError(const JsonValue &message)
{
    const JsonValue *reason = message.find("message");
    throw std::runtime_error(
        "server error: " +
        (reason ? reason->asString() : std::string("(no message)")));
}

} // namespace

ServiceClient::ServiceClient(const std::string &host,
                             std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::invalid_argument(
            "'" + host + "' is not a dotted-quad IPv4 address");
    int raw = ::socket(AF_INET, SOCK_STREAM, 0);
    if (raw < 0)
        throw TransportError(std::string("cannot create socket: ") +
                             std::strerror(errno));
    OwnedFd sock(raw);
    if (::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        throw TransportError("cannot connect to " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
    setNoDelay(sock.fd());
    _fd = std::move(sock);
}

JsonValue
ServiceClient::request(const std::string &payload,
                       const std::string &expect_type)
{
    writeFrame(_fd.fd(), payload);
    JsonValue message;
    std::string type;
    if (!readMessage(_fd.fd(), message, type))
        throw TransportError(
            "server closed the connection before replying");
    if (type == "error")
        serverError(message);
    if (type != expect_type)
        throw std::invalid_argument("expected a '" + expect_type +
                                    "' reply, got '" + type + "'");
    return message;
}

ServiceClient::SweepOutcome
ServiceClient::sweep(const SweepRequest &request_body,
                     const CellCallback &on_cell)
{
    JsonValue batch = request(request_body.encode(), "batch");
    std::uint64_t cells = batch.at("cells").asU64();

    SweepOutcome outcome;
    outcome.results.reserve(cells);
    JsonValue message;
    std::string type;
    while (true) {
        if (!readMessage(_fd.fd(), message, type))
            throw TransportError("server closed the connection "
                                 "mid-stream (got " +
                                 std::to_string(
                                     outcome.results.size()) +
                                 " of " + std::to_string(cells) +
                                 " cells)");
        if (type == "error")
            serverError(message);
        if (type == "done")
            break;
        if (type != "cell")
            throw std::invalid_argument(
                "expected a 'cell' or 'done' frame, got '" + type +
                "'");
        CellReply reply = CellReply::decode(message);
        if (reply.index != outcome.results.size())
            throw std::invalid_argument(
                "cell stream out of order: expected index " +
                std::to_string(outcome.results.size()) + ", got " +
                std::to_string(reply.index));
        if (reply.index >= cells)
            throw std::invalid_argument(
                "cell stream overruns the announced batch of " +
                std::to_string(cells) + " cells");
        if (reply.cached)
            ++outcome.cachedCells;
        if (on_cell)
            on_cell(reply);
        outcome.results.push_back(reply.toResult());
    }
    outcome.done = DoneReply::decode(message);
    if (outcome.done.cells != cells ||
        outcome.results.size() != cells)
        throw std::invalid_argument(
            "done frame disagrees with the cell stream (" +
            std::to_string(outcome.results.size()) + " cells seen, " +
            std::to_string(outcome.done.cells) + " announced)");
    return outcome;
}

StatsReply
ServiceClient::stats()
{
    return StatsReply::decode(
        request("{\"type\":\"stats\"}", "stats"));
}

void
ServiceClient::ping()
{
    request("{\"type\":\"ping\"}", "pong");
}

void
ServiceClient::shutdown()
{
    request("{\"type\":\"shutdown\"}", "bye");
}

} // namespace tlbpf
