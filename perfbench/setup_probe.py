"""Time one cold set-up in a fresh process and print it in seconds.

Set-up is ``import preproj`` plus, for each config, the CLI's config
parsing (which builds the Cartan data), ``build_algebra`` and
``enumerate_weyl``.

    python3 perfbench/setup_probe.py <src dir> '<JSON list of CLI argv lists>'
"""

import json
import sys
import time

if __name__ == "__main__":
    src, argv_lists = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    from preproj.cli import build_parser, load_config
    from preproj.coxeter import enumerate_weyl
    from preproj.fields import field_from_spec
    from preproj.pathalg import build_algebra

    for argv in argv_lists:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.field is not None:
            cfg.field = field_from_spec(args.field)
        build_algebra(cfg.data, cfg.field, cfg.max_degree, cfg.max_basis)
        enumerate_weyl(cfg.data.cartan, cap=cfg.weyl_cap)
    print(time.perf_counter() - start)
