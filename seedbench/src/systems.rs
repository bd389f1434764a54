//! The text-to-SQL systems of the paper's tables, with their LLM meters, and
//! the delegating wrapper the traced run hands to callers in their place.

use seed_llm::{LanguageModel, UsageStats};
use seed_text2sql::{
    Chess, ChessConfig, CodeS, DailSql, GenerationContext, RslSql, Text2SqlSystem, C3,
};

use crate::trace;

pub enum System {
    Chess(Chess),
    RslSql(RslSql),
    CodeS(CodeS),
    DailSql(DailSql),
    C3(C3),
}

impl System {
    /// The seven systems of Table IV, in the order its binary lists them.
    pub fn table4() -> Vec<System> {
        vec![
            System::Chess(Chess::new(ChessConfig::IrCgUt)),
            System::Chess(Chess::new(ChessConfig::IrSsCg)),
            System::RslSql(RslSql::new()),
            System::CodeS(CodeS::new(15)),
            System::CodeS(CodeS::new(7)),
            System::DailSql(DailSql::new()),
            System::C3(C3::new()),
        ]
    }

    /// The systems of Table V.
    pub fn table5() -> Vec<System> {
        vec![System::CodeS(CodeS::new(15)), System::CodeS(CodeS::new(7)), System::C3(C3::new())]
    }

    /// The systems of Table VII.
    pub fn table7() -> Vec<System> {
        vec![
            System::Chess(Chess::new(ChessConfig::IrCgUt)),
            System::CodeS(CodeS::new(15)),
            System::CodeS(CodeS::new(7)),
        ]
    }

    pub fn as_dyn(&self) -> &dyn Text2SqlSystem {
        match self {
            System::Chess(s) => s,
            System::RslSql(s) => s,
            System::CodeS(s) => s,
            System::DailSql(s) => s,
            System::C3(s) => s,
        }
    }

    /// The cumulative usage of the system's simulated model.
    pub fn usage(&self) -> UsageStats {
        match self {
            System::Chess(s) => s.model().usage(),
            System::RslSql(s) => s.model().usage(),
            System::CodeS(s) => s.model().usage(),
            System::DailSql(s) => s.model().usage(),
            System::C3(s) => s.model().usage(),
        }
    }
}

/// LLM usage accrued between two meter readings.
pub fn usage_delta(before: UsageStats, after: UsageStats) -> UsageStats {
    UsageStats {
        calls: after.calls - before.calls,
        prompt_tokens: after.prompt_tokens - before.prompt_tokens,
    }
}

/// Delegates to a system, recording a `text2sql.generate` span and the
/// call's LLM usage.
pub struct Traced<'a>(pub &'a System);

impl Text2SqlSystem for Traced<'_> {
    fn name(&self) -> String {
        self.0.as_dyn().name()
    }

    fn generate(&self, ctx: &GenerationContext<'_>) -> String {
        let before = self.0.usage();
        let sql = {
            let _span = trace::span("text2sql.generate");
            self.0.as_dyn().generate(ctx)
        };
        let used = usage_delta(before, self.0.usage());
        trace::count("text2sql.llm_calls", used.calls);
        trace::count("text2sql.prompt_tokens", used.prompt_tokens);
        sql
    }
}
