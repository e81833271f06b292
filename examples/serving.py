"""Serving: many clients, one compiled program, shared ciphertext lanes.

The serving runtime (``repro.serve``) turns the one-shot ``repro.run``
API into a job server: programs are registered by structural signature,
compile/keygen artifacts are cached, and independent client requests are
packed into the unused SIMD lanes of shared ciphertexts — k requests for
one request's price.

1. ``serving_demo`` — an encrypted scoring service on the functional
   backend (real encryption): clients submit width-8 vectors, the server
   batches them, and every response is checked against a solo run.
2. ``modeled_demo`` — the same program on the F1 accelerator model:
   requests/s with and without slot batching.

Usage:  python examples/serving.py
"""

import numpy as np

import repro
from repro.serve.traffic import modeled_f1_throughput, poly_ckks_program


def serving_demo(n: int = 512, clients: int = 24, width: int = 8) -> None:
    print("=== 1. Batched encrypted serving (functional backend) ===")
    program = poly_ckks_program(n)
    x_id, y_id = program.ops[0].op_id, program.ops[1].op_id
    rng = np.random.default_rng(7)
    vectors = [(rng.uniform(-1, 1, width), rng.uniform(-1, 1, width))
               for _ in range(clients)]

    with repro.FheServer(max_batch=8, max_wait_ms=5.0, workers=2) as server:
        futures = [server.submit(program, inputs={x_id: x, y_id: y})
                   for x, y in vectors]
        results = [f.result() for f in futures]
        stats = server.stats()

    for (x, y), result in zip(vectors, results):
        got = next(iter(result.values.values()))[:width]
        assert np.max(np.abs(got - (x * y + x))) < 1e-2
    sample = results[-1]
    print(f"served {stats['requests']} requests in {stats['batches']} batches "
          f"(mean occupancy {stats['mean_occupancy']:.2f})")
    print(f"throughput {stats['requests_per_s']:.0f} req/s, latency "
          f"p50 {stats['latency_ms']['p50']:.1f} ms / "
          f"p99 {stats['latency_ms']['p99']:.1f} ms")
    print(f"compile/keygen cache hit rate {stats['registry']['hit_rate']:.2f} "
          f"(last request: batch of {sample.batch_size}, "
          f"cache_hit={sample.cache_hit})")
    print("every response matches its solo run\n")


def modeled_demo(n: int = 16384, width: int = 8, level: int = 8) -> None:
    print("=== 2. The same service on the F1 accelerator model ===")
    program = poly_ckks_program(n, level=level)
    report = modeled_f1_throughput(program, width=width)
    print(f"batch capacity        : {report['capacity']} requests/ciphertext")
    print(f"modeled batch time    : {report['batch_time_ms']:.4f} ms")
    print(f"one request per run   : {report['requests_per_s_solo']:,.0f} req/s")
    print(f"slot-batched serving  : {report['requests_per_s_batched']:,.0f} req/s "
          f"({report['speedup']:.0f}x)")


if __name__ == "__main__":
    serving_demo()
    modeled_demo()
