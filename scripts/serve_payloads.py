#!/usr/bin/env python3
"""Writes the serve payload golden file (tests/data/serve_payloads.txt).

Sends a fixed request corpus to a running mrsc_serve and records each
request with the exact response bytes, so test_serve_payloads can replay
every request through serve::run_job and demand the same bytes. The corpus:

  * sims: the five designs perfbench's serve_cold workload draws from, under
    every method (nrm ssa dp45 rk4 be tau), t_end 3, seed 1;
  * lints at opt 0 and 1 over the smoke catalog (read with the catalog op);
  * one stress job and one verify job.

Regenerate only when a payload is meant to change:

  build/src/tools/mrsc_serve --port-file port.txt &
  python3 scripts/serve_payloads.py --port "$(cat port.txt)" \\
      --out tests/data/serve_payloads.txt
  kill %1
"""

import argparse
import json
import socket
import struct

SIM_DESIGNS = ["counter(4)", "fsm_wide(16)", "cascade(4)", "delay_chain(8)",
               "delay_chain(16)"]
SIM_METHODS = ["nrm", "ssa", "dp45", "rk4", "be", "tau"]
STRESS = ('{"op":"job","kind":"stress","design":"counter",'
          '"intensities":[0.05],"trials":1}')
VERIFY = '{"op":"job","kind":"verify","seeds":5}'


def request(sock, payload):
    data = payload.encode()
    sock.sendall(struct.pack(">I", len(data)) + data)
    header = read_exact(sock, 4)
    return read_exact(sock, struct.unpack(">I", header)[0]).decode()


def read_exact(sock, count):
    out = b""
    while len(out) < count:
        chunk = sock.recv(count - len(out))
        if not chunk:
            raise RuntimeError("server closed the connection")
        out += chunk
    return out


def corpus(smoke):
    for design in SIM_DESIGNS:
        for method in SIM_METHODS:
            yield ('{"op":"job","kind":"sim","design":%s,"method":"%s",'
                   '"seed":1,"t_end":3}' % (json.dumps(design), method))
    for opt in (0, 1):
        for design in smoke:
            yield ('{"op":"job","kind":"lint","design":%s,"opt":%d}'
                   % (json.dumps(design), opt))
    yield STRESS
    yield VERIFY


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with socket.create_connection((args.host, args.port)) as sock:
        smoke = json.loads(request(sock, '{"op":"catalog"}'))["smoke"]
        lines = [
            "# serve::run_job request/response pairs: a request line, then",
            "# its exact response bytes. Written by scripts/serve_payloads.py;",
            "# replayed by tests/test_serve_payloads.cpp.",
        ]
        for payload in corpus(smoke):
            response = request(sock, payload)
            if not response.startswith('{"status":"ok"'):
                raise RuntimeError(payload + " -> " + response)
            lines += [payload, response]
    with open(args.out, "w") as out:
        out.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
