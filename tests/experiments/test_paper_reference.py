"""Tests for the paper-reference data used in paper-vs-measured comparisons."""

from repro.experiments.paper_reference import (
    PAPER_CLAIMS,
    PAPER_TABLE4_ERRORS,
    PAPER_TABLE5_ERRORS,
    paper_best_algorithm,
)


class TestPaperReference:
    def test_ipss_is_best_in_every_table4_setting(self):
        for model, by_n in PAPER_TABLE4_ERRORS.items():
            for n in by_n:
                assert paper_best_algorithm(by_n, n) == "IPSS", (model, n)

    def test_ipss_is_best_in_every_table5_setting(self):
        for model, by_n in PAPER_TABLE5_ERRORS.items():
            for n in by_n:
                assert paper_best_algorithm(by_n, n) == "IPSS", (model, n)

    def test_table4_covers_all_client_counts(self):
        assert set(PAPER_TABLE4_ERRORS["mlp"]) == {3, 6, 10}
        assert set(PAPER_TABLE4_ERRORS["cnn"]) == {3, 6, 10}

    def test_table5_xgb_has_no_gradient_baselines(self):
        for n, errors in PAPER_TABLE5_ERRORS["xgb"].items():
            assert "OR" not in errors
            assert "GTG-Shapley" not in errors

    def test_claims_cover_all_figures(self):
        assert set(PAPER_CLAIMS) == {
            "figure1b",
            "figure4",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
        }
