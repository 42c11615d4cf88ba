"""Tables I-IV of the paper, regenerated from the library's own state."""

from __future__ import annotations

from typing import Dict

from repro.core import presets
from repro.experiments.featurematrix import feature_headers, feature_table
from repro.experiments.formatting import format_table
from repro.host.platform import mobile_platform, pc_platform
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS, EnterpriseGenerator


def table1() -> Dict:
    """Table I: real-device hardware configuration."""
    return presets.table1_configuration()


def table2() -> Dict:
    """Table II: gem5 system configurations (PC + mobile)."""
    return {"PC platform": pc_platform().table_row(),
            "Mobile platform": mobile_platform().table_row()}


def table3(n_samples: int = 3000) -> Dict:
    """Table III: workload characteristics — spec vs what our generators
    actually produce (the empirical columns validate the generators)."""
    out = {}
    for name, spec in ENTERPRISE_WORKLOADS.items():
        generator = EnterpriseGenerator(spec, region_sectors=1 << 22)
        empirical = generator.sample_statistics(n_samples)
        out[name] = {"spec": spec.table_row(), "generated": empirical}
    return out


def table4() -> Dict:
    """Table IV: feature matrix across simulators."""
    return {"headers": feature_headers(), "rows": feature_table()}


def run(quick: bool = True) -> Dict:
    return {
        "table1": table1(),
        "table2": table2(),
        "table3": table3(600 if quick else 5000),
        "table4": table4(),
    }


def render(results: Dict) -> str:
    blocks = []
    t1 = results["table1"]
    rows = [[section, ", ".join(f"{k}={v}" for k, v in values.items())]
            for section, values in t1.items()]
    blocks.append(format_table(["section", "configuration"], rows,
                               "Table I: real-device hardware configuration"))

    t2 = results["table2"]
    keys = list(next(iter(t2.values())))
    rows = [[key] + [t2[platform][key] for platform in t2] for key in keys]
    blocks.append(format_table([""] + list(t2), rows,
                               "Table II: gem5 system configurations"))

    rows = []
    for name, data in results["table3"].items():
        spec, gen = data["spec"], data["generated"]
        rows.append([
            name,
            f"{spec['Avg. read length (KB)']} / {gen['avg_read_kb']:.1f}",
            f"{spec['Avg. write length (KB)']} / {gen['avg_write_kb']:.1f}",
            f"{spec['Read ratio (%)']} / {gen['read_ratio'] * 100:.0f}",
            f"{spec['Random read (%)']} / {gen['random_read'] * 100:.0f}",
            f"{spec['Random write (%)']} / {gen['random_write'] * 100:.0f}",
        ])
    blocks.append(format_table(
        ["workload", "read KB (spec/gen)", "write KB", "read %",
         "rand read %", "rand write %"], rows,
        "Table III: workload characteristics (spec vs generated)"))

    t4 = results["table4"]
    blocks.append(format_table(t4["headers"], t4["rows"],
                               "Table IV: feature comparison"))
    return "\n\n".join(blocks)
