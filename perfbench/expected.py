"""Pinned outputs the benchmark checks every run against.

``digest`` is the trace SHA-256 at the scenario's shipped seed.  ``facts``
are parts of ``report_dict`` plus the trace record count that do not depend
on the seed: the shipped scenarios draw no random number that steers control
flow (no message-drop faults), so seeds only change key bytes and token ids.
They were taken from ``report_dict`` at the shipped seed and hold unchanged at
seeds 1, 2, 3, 12345, 987654321, 2**30 + 7 and 2**31 - 1.

``rollout-2022`` is pinned at four times its shipped horizon, the size the
``fallback-long`` workload runs it at.
"""

EXPECTED = {
    "rollout-2022-tokenonly": {
        "digest": "5c7b41acef13d26ef3305972c9d2f7bb480af777b4e0bc2da60a6a654816e916",
        "facts": {
            "auth": {
                "denied": 0,
                "dropped": 0,
                "failures_by_reason": {"CapacityExceeded": 7128, "UntrustedIssuer": 3120},
                "legacy_dependency": {},
                "success_by_method": {"IDTOKEN": 8547, "SCITOKEN": 8580},
            },
            "jobs": {"MATCH": 1452, "QUEUED": 1980},
            "pilots": {
                "FAILED": 10248,
                "JOINED": 1452,
                "REQUESTED": 11700,
                "STARTED": 1452,
                "SUBMITTED": 1452,
            },
            "pool": {"capacity": 1980, "final": 1452, "peak": 1452, "tail_fraction": 0.7333},
            "records": 55183,
        },
    },
    "rollout-2022": {
        "digest": "869f0ab5daa0dd883668ca43c3e281130f69fbb7ef5bcbafaed343b303673528",
        "facts": {
            "auth": {
                "denied": 0,
                "dropped": 0,
                "failures_by_reason": {"UntrustedIssuer": 528},
                "legacy_dependency": {"FACTORY->CE": 528},
                "success_by_method": {"GSI_PROXY": 528, "IDTOKEN": 40242, "SCITOKEN": 1452},
            },
            "jobs": {"MATCH": 1980, "QUEUED": 1980},
            "pilots": {"JOINED": 1980, "REQUESTED": 1980, "STARTED": 1980, "SUBMITTED": 1980},
            "pool": {"capacity": 1980, "final": 1980, "peak": 1980, "tail_fraction": 1.0},
            "records": 52777,
        },
    },
    "arc-ldap-deprecation": {
        "digest": "778ecf425486e40e2429d4f30ed63e6062f422e4f1dffe0c7b30e47bca01aa68",
        "facts": {
            "auth": {
                "denied": 0,
                "dropped": 0,
                "failures_by_reason": {"CapacityExceeded": 135, "DeprecatedInterface": 165},
                "legacy_dependency": {"FACTORY->CE": 165},
                "success_by_method": {"GSI_PROXY": 165, "IDTOKEN": 94},
            },
            "jobs": {"MATCH": 30, "QUEUED": 60},
            "pilots": {
                "FAILED": 300,
                "JOINED": 30,
                "REQUESTED": 330,
                "STARTED": 30,
                "SUBMITTED": 30,
            },
            "pool": {"capacity": 60, "final": 30, "peak": 30, "tail_fraction": 0.5},
            "records": 1322,
        },
    },
    "drill-keysplit": {
        "digest": "c3ca61b73709b0c1c43d7e5067ad1efd0b4efb5c33c808e196fb52e1cb214d51",
        "facts": {
            "auth": {
                "denied": 0,
                "dropped": 0,
                "failures_by_reason": {},
                "legacy_dependency": {},
                "success_by_method": {"IDTOKEN": 338, "SCITOKEN": 125},
            },
            "drill": {
                "bound": 90,
                "compromised_at": 450,
                "evicted": 25,
                "kid": "startd-2",
                "pool_before": 100,
                "recovered_at": 540,
                "recovery_time": 90,
                "within_bound": True,
            },
            "jobs": {"MATCH": 125, "QUEUED": 100, "REQUEUE": 25},
            "pilots": {
                "EVICT": 25,
                "JOINED": 125,
                "REQUESTED": 125,
                "STARTED": 125,
                "SUBMITTED": 125,
            },
            "pool": {"capacity": 100, "final": 100, "peak": 100, "tail_fraction": 1.0},
            "records": 1160,
        },
    },
    "migration-2022": {
        "digest": "c701100fd3b341a4cab49a84236b1c63895923aab503e9cc62df298e95892302",
        "facts": {
            "auth": {
                "denied": 0,
                "dropped": 0,
                "failures_by_reason": {"NoCommonMethod": 1},
                "legacy_dependency": {"FACTORY->CE": 30},
                "success_by_method": {"GSI_PROXY": 30, "IDTOKEN": 377, "SCITOKEN": 50},
            },
            "jobs": {"MATCH": 80, "QUEUED": 80},
            "pilots": {"JOINED": 80, "REQUESTED": 80, "STARTED": 80, "SUBMITTED": 80},
            "pool": {"capacity": 80, "final": 80, "peak": 80, "tail_fraction": 1.0},
            "records": 890,
        },
    },
    "split-2022": {
        "digest": "9b38b1d120ccff5070fe1e49d4c16c59ab88e5f7c50916f84043a4579c63c444",
        "facts": {
            "auth": {
                "denied": 0,
                "dropped": 0,
                "failures_by_reason": {"CapacityExceeded": 400},
                "legacy_dependency": {"FACTORY->CE": 240},
                "success_by_method": {"GSI_PROXY": 240, "IDTOKEN": 218, "SCITOKEN": 240},
            },
            "jobs": {"MATCH": 80, "QUEUED": 120},
            "pilots": {
                "FAILED": 400,
                "JOINED": 80,
                "REQUESTED": 480,
                "STARTED": 80,
                "SUBMITTED": 80,
            },
            "pool": {"capacity": 80, "final": 80, "peak": 80, "tail_fraction": 1.0},
            "records": 2311,
        },
    },
}
